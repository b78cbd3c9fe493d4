package ir

// FuncAlign is the alignment of function start addresses, matching the
// 16-byte alignment common x86-64 compilers use.
const FuncAlign = 16

// funcHeaderSize models the prologue bytes before the first block
// (push rbp; mov rbp,rsp; frame adjustment).
const funcHeaderSize = 8

// ComputeSizes fills in the modeled encoded size and offset of every block
// and the total size of every function. Layout consumers (the linker and
// the STABILIZER code heap) and the interpreter's fetch accounting depend on
// these values, so every pipeline runs this after its last transformation.
func ComputeSizes(m *Module) {
	for _, f := range m.Funcs {
		f.ComputeSizes()
	}
}

// ComputeSizes is the per-function form of the package's ComputeSizes, for
// a pass that changed only f.
func (f *Function) ComputeSizes() {
	off := uint64(funcHeaderSize)
	for _, b := range f.Blocks {
		b.Off = off
		sz, live := uint64(0), uint64(0)
		for i := range b.Instrs {
			op := b.Instrs[i].Op
			sz += op.EncodedSize()
			if op != OpNop {
				live++
			}
		}
		sz += b.Term.EncodedSize()
		b.Size = sz
		b.Live = live
		off += sz
	}
	// Round the function footprint up to its alignment.
	f.Size = (off + FuncAlign - 1) &^ (FuncAlign - 1)
}
