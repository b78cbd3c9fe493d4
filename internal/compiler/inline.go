package compiler

import "repro/internal/ir"

// Inline replaces calls to small functions with their bodies. Threshold is
// the callee size in modeled code bytes below which inlining happens;
// MaxGrowth bounds the caller's growth factor. The -O2 pipeline uses a small
// threshold; -O3 "increases the amount of inlining" (§6) with a larger one —
// which also grows code footprint, one of the reasons -O3's measured benefit
// can be noise.
type Inline struct {
	Threshold uint64
	MaxGrowth uint64 // max caller size in bytes after inlining
}

// Name implements Pass.
func (Inline) Name() string { return "inline" }

// Run implements Pass.
func (p Inline) Run(m *ir.Module) {
	if p.Threshold == 0 {
		p.Threshold = 64
	}
	if p.MaxGrowth == 0 {
		p.MaxGrowth = 4096
	}
	ir.ComputeSizes(m)
	reach := callReachability(m)
	// One throw set serves the whole pass: only callees outside it are
	// spliced, and such a body holds no OpThrow and no call that reaches
	// one, so no splice changes which functions can raise.
	throwy := throwyFuncs(m, reach)
	entry := m.Entry()

	for fi, f := range m.Funcs {
		// Repeatedly inline the first eligible call site until none remain
		// or the growth budget is hit. A splice changes only its caller, so
		// only the caller is re-sized, and no site's eligibility changes
		// while the caller is processed. The blocks before a splice held
		// no eligible site and the splice adds none to its own block, so
		// the scan for the next site resumes at the block after it.
		for from := 0; ; {
			bi, ii, ok := findInlineSite(m, fi, f, from, entry, reach, throwy, p.Threshold)
			if !ok {
				break
			}
			inlineCall(m, f, bi, ii)
			f.ComputeSizes()
			if f.Size > p.MaxGrowth {
				break
			}
			from = bi + 1
		}
	}
}

// findInlineSite locates the first call in f, from block from on, eligible
// for inlining.
func findInlineSite(m *ir.Module, fi int, f *ir.Function, from, entry int, reach reachability, throwy []bool, threshold uint64) (bi, ii int, ok bool) {
	for bi := from; bi < len(f.Blocks); bi++ {
		b := f.Blocks[bi]
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op != ir.OpCall {
				continue
			}
			if in.Imm != 0 {
				continue // invoke sites keep their frame for unwinding
			}
			callee := int(in.Sym)
			cf := m.Funcs[callee]
			if callee == fi || callee == entry || cf.NoRelocate {
				continue
			}
			if throwy[callee] {
				// A throw escaping an inlined body would skip this frame's
				// place in the unwind order; keep the call.
				continue
			}
			if cf.Size > threshold {
				continue
			}
			if reach.has(callee, fi) || reach.has(callee, callee) {
				continue // mutual or self recursion: inlining would unroll forever
			}
			return bi, ii, true
		}
	}
	return 0, 0, false
}

// throwyFuncs reports, per function, whether it may raise an exception,
// directly or through a callee (invokes that catch internally still count,
// conservatively). reach is callReachability(m).
func throwyFuncs(m *ir.Module, reach reachability) []bool {
	out := make([]bool, len(m.Funcs))
	for t, f := range m.Funcs {
		if !containsThrow(f) {
			continue
		}
		out[t] = true
		for fi := range m.Funcs {
			if reach.has(fi, t) {
				out[fi] = true
			}
		}
	}
	return out
}

func containsThrow(f *ir.Function) bool {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpThrow {
				return true
			}
		}
	}
	return false
}

// reachability is the transitive closure of the call graph, a row of bits
// per function.
type reachability struct {
	words int // words per row
	bits  []uint64
}

// has reports whether a can (transitively) call b.
func (r reachability) has(a, b int) bool {
	return r.bits[a*r.words+b/64]&(1<<(uint(b)%64)) != 0
}

func (r reachability) row(a int) []uint64 { return r.bits[a*r.words : (a+1)*r.words] }

// callReachability computes transitive reachability over the call graph.
func callReachability(m *ir.Module) reachability {
	n := len(m.Funcs)
	r := reachability{words: (n + 63) / 64}
	r.bits = make([]uint64, n*r.words)
	for fi, f := range m.Funcs {
		row := r.row(fi)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Op == ir.OpCall {
					row[in.Sym/64] |= 1 << (uint(in.Sym) % 64)
				}
			}
		}
	}
	for k := 0; k < n; k++ {
		rk := r.row(k)
		for i := 0; i < n; i++ {
			if r.has(i, k) {
				ri := r.row(i)
				for w := range ri {
					ri[w] |= rk[w]
				}
			}
		}
	}
	return r
}

// inlineCall splices the callee's body into f at the given call site.
func inlineCall(m *ir.Module, f *ir.Function, bi, ii int) {
	b := f.Blocks[bi]
	call := b.Instrs[ii]
	callee := m.Funcs[call.Sym]

	regBase := ir.Reg(f.NumRegs)
	f.NumRegs += callee.NumRegs
	slotBase := int32(len(f.Slots))
	f.Slots = append(f.Slots, callee.Slots...)
	blockBase := len(f.Blocks) + 1 // +1 for the continuation block

	mapReg := func(r ir.Reg) ir.Reg {
		if r == ir.NoReg {
			return ir.NoReg
		}
		return regBase + r
	}

	// Continuation block: the tail of the original block plus its
	// terminator.
	cont := &ir.Block{
		Instrs: append([]ir.Instr(nil), b.Instrs[ii+1:]...),
		Term:   b.Term,
	}
	contIdx := len(f.Blocks)
	f.Blocks = append(f.Blocks, cont)

	// Head keeps the prefix, binds arguments, and jumps into the body.
	head := b.Instrs[:ii:ii]
	for pi, arg := range call.Args {
		head = append(head, ir.Instr{Op: ir.OpMov, Dst: regBase + ir.Reg(pi), A: arg, B: ir.NoReg})
	}
	b.Instrs = head
	b.Term = ir.Terminator{Kind: ir.TermJmp, Then: blockBase, Cond: ir.NoReg, Val: ir.NoReg}

	// Copy callee blocks with registers, slots, and targets remapped;
	// returns become moves + jumps to the continuation.
	for _, cb := range callee.Blocks {
		nb := &ir.Block{Instrs: make([]ir.Instr, 0, len(cb.Instrs))}
		for _, in := range cb.Instrs {
			ni := in
			ni.Dst = mapReg(in.Dst)
			ni.A = mapReg(in.A)
			ni.B = mapReg(in.B)
			if len(in.Args) > 0 {
				ni.Args = make([]ir.Reg, len(in.Args))
				for ai, a := range in.Args {
					ni.Args[ai] = mapReg(a)
				}
			}
			switch in.Op {
			case ir.OpLoadS, ir.OpStoreS, ir.OpLoadSF, ir.OpStoreSF:
				ni.Sym = in.Sym + slotBase
			case ir.OpCall:
				if in.Imm != 0 {
					// Remap the invoke's handler into the copied blocks.
					ni.Imm = in.Imm + int64(blockBase)
				}
			}
			nb.Instrs = append(nb.Instrs, ni)
		}
		t := cb.Term
		switch t.Kind {
		case ir.TermJmp:
			nb.Term = ir.Terminator{Kind: ir.TermJmp, Then: t.Then + blockBase, Cond: ir.NoReg, Val: ir.NoReg}
		case ir.TermBr:
			nb.Term = ir.Terminator{
				Kind: ir.TermBr, Cond: mapReg(t.Cond),
				Then: t.Then + blockBase, Else: t.Else + blockBase, Val: ir.NoReg,
			}
		case ir.TermRet:
			if call.Dst != ir.NoReg {
				src := mapReg(t.Val)
				if t.Val == ir.NoReg {
					// Callee returns nothing but the caller reads a value:
					// define zero.
					nb.Instrs = append(nb.Instrs, ir.Instr{Op: ir.OpConstI, Dst: call.Dst, A: ir.NoReg, B: ir.NoReg})
				} else {
					nb.Instrs = append(nb.Instrs, ir.Instr{Op: ir.OpMov, Dst: call.Dst, A: src, B: ir.NoReg})
				}
			}
			nb.Term = ir.Terminator{Kind: ir.TermJmp, Then: contIdx, Cond: ir.NoReg, Val: ir.NoReg}
		}
		f.Blocks = append(f.Blocks, nb)
	}
	f.Finalize() // recompute frame offsets after slot merge
}
