// Package ir defines the intermediate representation for programs in this
// reproduction: a register-machine IR organized as modules of functions,
// functions of basic blocks, and blocks of typed instructions.
//
// It plays the role LLVM bitcode plays in the paper: the optimization passes
// in internal/compiler transform it (changing both real work and code
// layout), the static linker assigns it addresses, and internal/interp
// executes it against the simulated machine. The STABILIZER compiler
// transformations of §3 (floating-point constant extraction, int/float
// conversion outlining, stack pad instrumentation) are passes over this IR.
package ir

import (
	"fmt"
	"sync"
)

// Reg is a virtual register index within a function. Registers hold 64-bit
// values; integer instructions interpret them as int64, floating-point
// instructions as IEEE-754 bits. Heap pointers are encoded values (see
// interp). NoReg marks an unused operand slot.
type Reg int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

// Op enumerates instruction opcodes.
type Op uint8

const (
	// OpNop does nothing (used by passes to delete instructions in place).
	OpNop Op = iota

	// Constants and moves.
	OpConstI // Dst = Imm
	OpConstF // Dst = float64 from Imm bits
	OpMov    // Dst = A

	// Integer arithmetic (operands as int64).
	OpAdd // Dst = A + B
	OpSub // Dst = A - B
	OpMul // Dst = A * B
	OpDiv // Dst = A / B (B==0 yields 0, like saturating hardware)
	OpRem // Dst = A % B (B==0 yields 0)
	OpAnd // Dst = A & B
	OpOr  // Dst = A | B
	OpXor // Dst = A ^ B
	OpShl // Dst = A << (B & 63)
	OpShr // Dst = A >> (B & 63) (logical)

	// Floating-point arithmetic (operands as float64 bits).
	OpFAdd // Dst = A + B
	OpFSub // Dst = A - B
	OpFMul // Dst = A * B
	OpFDiv // Dst = A / B

	// Comparisons produce 0 or 1.
	OpCmpEQ  // Dst = A == B
	OpCmpLT  // Dst = A < B (signed)
	OpCmpLE  // Dst = A <= B (signed)
	OpFCmpLT // Dst = A < B (float)

	// Conversions. Under STABILIZER these are outlined into per-module
	// conversion functions (§3.3), since their implicit constant pools
	// cannot be relocated.
	OpI2F // Dst = float64(int64(A))
	OpF2I // Dst = int64(float64(A))

	// Global memory. Sym is the global index; the byte address is
	// global base + Imm + 8*(index register A, if present).
	OpLoadG  // Dst = globals[Sym][...] as integer
	OpStoreG // globals[Sym][...] = B
	OpLoadGF // floating-point load (alignment-sensitive)
	OpStoreGF

	// Stack memory. Sym is the stack slot index within the current frame;
	// byte address is slot base + Imm + 8*(index register A, if present).
	OpLoadS
	OpStoreS
	OpLoadSF
	OpStoreSF

	// Heap memory. A is the pointer register; byte address is
	// pointer + Imm + 8*(index register B, if present).
	OpLoadH  // Dst = *(A + Imm + 8*B)
	OpStoreH // *(A + Imm + 8*B) = Dst operandB? see encoding below
	OpLoadHF
	OpStoreHF

	// Heap management.
	OpAlloc // Dst = malloc(Imm) — Imm is the size in bytes
	OpFree  // free(A)

	// Calls. Sym is the callee function index; Args are the arguments;
	// Dst receives the return value (NoReg for none). Imm holds the
	// handler block index + 1 for invoke-style calls (0 = no handler): if
	// the callee throws, control transfers to the handler block with the
	// exception value in Dst.
	OpCall

	// OpThrow raises the value in A as an exception: execution unwinds
	// frame by frame to the nearest enclosing invoke handler; an uncaught
	// exception terminates the program with an error. This is the
	// exception support the paper lists as planned work (§5: "We plan to
	// add support for exceptions by rewriting LLVM's exception handling
	// intrinsics to invoke STABILIZER-specific runtime support").
	OpThrow

	// Output. Sink instructions mix a register into the program's output
	// checksum; they are the observable behaviour passes must preserve.
	OpSink  // integer
	OpSinkF // floating-point

	opCount
)

// Instr is one IR instruction.
//
// Operand conventions by opcode:
//
//	stores (OpStore*): B is the value register; A is the index register for
//	global/stack forms. For OpStoreH, A is the pointer and the value
//	register is Dst (reusing the otherwise-unused destination slot), and B
//	is the optional index register.
type Instr struct {
	Op   Op
	Dst  Reg
	A, B Reg
	Imm  int64
	Sym  int32 // global / stack slot / function index, per opcode
	Args []Reg // call arguments
}

// TermKind enumerates block terminators.
type TermKind uint8

const (
	// TermNone marks an unterminated block (invalid in a finished function).
	TermNone TermKind = iota
	TermJmp           // unconditional jump to Then
	TermBr            // if Cond != 0 goto Then else Else
	TermRet           // return Val (NoReg for none)
)

// Terminator ends a basic block.
type Terminator struct {
	Kind TermKind
	Cond Reg
	Then int // block index
	Else int
	Val  Reg
}

// Block is a basic block: straight-line instructions plus one terminator.
type Block struct {
	Instrs []Instr
	Term   Terminator

	// Layout, filled in by the compiler's size model: byte offset of the
	// block within its function, its encoded size, and the number of live
	// (non-nop) instructions.
	Off  uint64
	Size uint64
	Live uint64
}

// StackSlot describes one slot in a function's frame.
type StackSlot struct {
	Name string
	Size uint64 // bytes (multiple of 8)
	Off  uint64 // byte offset within the frame, filled by Finalize
}

// Function is a single IR function.
type Function struct {
	Name    string
	Params  int // parameters arrive in registers 0..Params-1
	NumRegs int
	Blocks  []*Block
	Slots   []StackSlot

	// FrameSize is the frame footprint in bytes, filled by Finalize.
	FrameSize uint64
	// Size is the encoded code size in bytes including padding, filled by
	// the compiler's size model.
	Size uint64

	// NoRelocate marks functions the STABILIZER runtime must not move
	// (the int/float conversion outlines, §3.3).
	NoRelocate bool
}

// Global is a module-level variable.
type Global struct {
	Name string
	Size uint64  // bytes
	Init []int64 // optional initial words (zero-filled beyond)
}

// Module is a compilation unit: functions plus globals. Function index 0 is
// reserved by convention for main (the entry point), mirroring the paper's
// interposition on main.
type Module struct {
	Name    string
	Funcs   []*Function
	Globals []Global

	// lowered memoizes the compiled execution engine's form of the module
	// (see Lowered). Clone does not copy it.
	lowered struct {
		once sync.Once
		v    any
	}
}

// Lowered returns the value build derives from m — the compiled execution
// engine's lowered code — calling build on the first call only. Concurrent
// first callers wait for that one build and share its result (sync.Once: if
// build panics, later calls return nil). The value lives exactly as long as
// m: the garbage collector frees it together with the module.
//
// Modules are immutable after compilation (compiler.Compile clones its input
// and nothing downstream writes), which is what makes the memo sound: a
// module must not be changed after its first Lowered call.
func (m *Module) Lowered(build func(*Module) any) any {
	m.lowered.once.Do(func() { m.lowered.v = build(m) })
	return m.lowered.v
}

// FuncIndex returns the index of the named function, or -1.
func (m *Module) FuncIndex(name string) int {
	for i, f := range m.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Entry returns the entry function index (named "main" if present, else 0).
func (m *Module) Entry() int {
	if i := m.FuncIndex("main"); i >= 0 {
		return i
	}
	return 0
}

// Finalize computes frame layouts. It must be called (directly or via the
// compiler pipeline) before execution.
func (m *Module) Finalize() {
	for _, f := range m.Funcs {
		f.Finalize()
	}
}

// Finalize computes f's frame layout: the per-function form of the
// module's Finalize, for a pass that changed only f's slots.
func (f *Function) Finalize() {
	off := uint64(0)
	for i := range f.Slots {
		f.Slots[i].Off = off
		off += (f.Slots[i].Size + 7) &^ 7
	}
	// Saved return address + frame pointer, as in Figure 4.
	f.FrameSize = off + 16
}

// opNames maps opcodes to mnemonics for String/debugging.
var opNames = [...]string{
	OpNop: "nop", OpConstI: "consti", OpConstF: "constf", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpCmpEQ: "cmpeq", OpCmpLT: "cmplt", OpCmpLE: "cmple", OpFCmpLT: "fcmplt",
	OpI2F: "i2f", OpF2I: "f2i",
	OpLoadG: "loadg", OpStoreG: "storeg", OpLoadGF: "loadgf", OpStoreGF: "storegf",
	OpLoadS: "loads", OpStoreS: "stores", OpLoadSF: "loadsf", OpStoreSF: "storesf",
	OpLoadH: "loadh", OpStoreH: "storeh", OpLoadHF: "loadhf", OpStoreHF: "storehf",
	OpAlloc: "alloc", OpFree: "free", OpCall: "call", OpThrow: "throw",
	OpSink: "sink", OpSinkF: "sinkf",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsLoad reports whether the opcode reads memory.
func (o Op) IsLoad() bool {
	switch o {
	case OpLoadG, OpLoadGF, OpLoadS, OpLoadSF, OpLoadH, OpLoadHF:
		return true
	}
	return false
}

// IsStore reports whether the opcode writes memory.
func (o Op) IsStore() bool {
	switch o {
	case OpStoreG, OpStoreGF, OpStoreS, OpStoreSF, OpStoreH, OpStoreHF:
		return true
	}
	return false
}

// IsFloat reports whether the opcode operates on floating-point values.
func (o Op) IsFloat() bool {
	switch o {
	case OpConstF, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFCmpLT,
		OpLoadGF, OpStoreGF, OpLoadSF, OpStoreSF, OpLoadHF, OpStoreHF, OpSinkF:
		return true
	}
	return false
}

// HasSideEffects reports whether an instruction with this opcode can be
// removed when its destination is dead.
func (o Op) HasSideEffects() bool {
	switch o {
	case OpStoreG, OpStoreGF, OpStoreS, OpStoreSF, OpStoreH, OpStoreHF,
		OpAlloc, OpFree, OpCall, OpSink, OpSinkF, OpThrow:
		return true
	}
	return o.IsLoad() // loads are kept conservative: heap/global state may alias
}

// EncodedSize returns the modeled x86-64 encoding size in bytes for an
// instruction with this opcode. The size model drives code layout: it
// determines function sizes, cache line spans, and therefore conflict
// behaviour.
func (o Op) EncodedSize() uint64 {
	switch o {
	case OpNop:
		return 0
	case OpConstI, OpConstF:
		return 7 // mov reg, imm
	case OpMov:
		return 3
	case OpMul, OpDiv, OpRem:
		return 4
	case OpI2F, OpF2I:
		return 5 // cvt instructions
	case OpCall:
		return 5 // call rel32
	case OpThrow:
		return 5 // call into the unwinder
	case OpAlloc, OpFree:
		return 5 // call into the allocator
	case OpSink, OpSinkF:
		return 4
	default:
		if o.IsLoad() || o.IsStore() {
			return 6 // mov with SIB + disp
		}
		return 3 // reg-reg ALU
	}
}

// termSize is the modeled encoding size of a terminator.
func (t Terminator) EncodedSize() uint64 {
	switch t.Kind {
	case TermJmp:
		return 5
	case TermBr:
		return 6 // cmp+jcc fused
	case TermRet:
		return 1
	}
	return 0
}
