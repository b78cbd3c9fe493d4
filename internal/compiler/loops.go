package compiler

import (
	"slices"

	"repro/internal/ir"
)

// cfg holds per-function control-flow analysis shared by the loop passes.
// A pass keeps one cfg and rebuilds it for each function, reusing its
// storage, so the analysis allocates per pass, not per block.
type cfg struct {
	f     *ir.Function
	succs [][]int
	preds [][]int
	idom  []int // immediate dominator; entry's idom is itself
	order []int // reverse-postorder numbering

	// Storage that build reuses from one function to the next.
	edges  []int // the successor lists, then the predecessor lists
	counts []int
	seen   []bool
	post   []int
	rpoNum []int
}

// build computes successors, predecessors, and dominators for f.
func (c *cfg) build(f *ir.Function) {
	n := len(f.Blocks)
	c.f = f
	c.succs, c.preds, c.idom = resize(c.succs, n), resize(c.preds, n), resize(c.idom, n)
	// A block has at most two successors, so the successor lists are
	// windows of 2n ints and the predecessor lists windows of the 2n after.
	c.edges = resize(c.edges, 4*n)
	succ, pred := c.edges[:2*n], c.edges[2*n:]
	c.counts = resize(c.counts, n)
	clear(c.counts)
	for i, b := range f.Blocks {
		s := succ[2*i : 2*i : 2*i+2]
		switch b.Term.Kind {
		case ir.TermJmp:
			s = append(s, b.Term.Then)
		case ir.TermBr:
			s = append(s, b.Term.Then, b.Term.Else)
		}
		c.succs[i] = s
		for _, t := range s {
			c.counts[t]++
		}
	}
	off := 0
	for t, k := range c.counts {
		c.preds[t] = pred[off : off : off+k]
		off += k
	}
	for i, s := range c.succs {
		for _, t := range s {
			c.preds[t] = append(c.preds[t], i)
		}
	}
	c.computeOrder()
	c.computeDominators()
}

// computeOrder numbers reachable blocks in reverse postorder.
func (c *cfg) computeOrder() {
	n := len(c.f.Blocks)
	c.seen = resize(c.seen, n)
	clear(c.seen)
	c.post = c.post[:0]
	c.dfs(0)
	c.order = resize(c.order, len(c.post))
	for i, b := range c.post {
		c.order[len(c.post)-1-i] = b
	}
}

func (c *cfg) dfs(b int) {
	c.seen[b] = true
	for _, s := range c.succs[b] {
		if !c.seen[s] {
			c.dfs(s)
		}
	}
	c.post = append(c.post, b)
}

// computeDominators runs the iterative algorithm of Cooper, Harvey, and
// Kennedy over the reverse postorder.
func (c *cfg) computeDominators() {
	n := len(c.f.Blocks)
	c.rpoNum = resize(c.rpoNum, n)
	rpoNum := c.rpoNum
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range c.order {
		rpoNum[b] = i
	}
	for i := range c.idom {
		c.idom[i] = -1
	}
	c.idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = c.idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = c.idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range c.order {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range c.preds[b] {
				if c.idom[p] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && c.idom[b] != newIdom {
				c.idom[b] = newIdom
				changed = true
			}
		}
	}
}

// dominates reports whether block a dominates block b.
func (c *cfg) dominates(a, b int) bool {
	for {
		if a == b {
			return true
		}
		if b == 0 || c.idom[b] == -1 {
			return false
		}
		if c.idom[b] == b {
			return false
		}
		b = c.idom[b]
	}
}

// LICM hoists loop-invariant pure computations into a preheader. Because the
// IR is not SSA, an instruction is hoisted only when it is the sole
// definition of its destination inside the loop, its destination is not read
// inside the loop before it on any path (conservatively: only read in its
// own block after it), and its operands have no definitions inside the loop.
type LICM struct{}

// Name implements Pass.
func (LICM) Name() string { return "licm" }

// Run implements Pass.
func (LICM) Run(m *ir.Module) {
	var l licm
	for _, f := range m.Funcs {
		l.function(f)
	}
}

// licm holds LICM's analysis storage, reused by every loop of a pass.
type licm struct {
	cfg    cfg
	inLoop []bool // membership of the current loop's blocks
	blocks []int  // the current loop's blocks, ascending
	defs   []int  // definitions of each register inside the current loop
	stack  []int
}

func (l *licm) function(f *ir.Function) {
	// Hoisting inserts preheaders, which invalidates the CFG analysis, so
	// rebuild and retry until no loop yields further motion. Loops are
	// taken in their headers' reverse postorder.
	c := &l.cfg
	for rounds := 0; rounds < 16; rounds++ {
		c.build(f)
		changed := false
		for _, h := range c.order {
			if l.loopAt(h) && l.hoist(f, h) {
				changed = true
				break // CFG is stale after a preheader insertion
			}
		}
		if !changed {
			return
		}
	}
}

// loopAt collects the natural loop headed by h, the union of the natural
// loops of every back edge into h, into l.inLoop and l.blocks, and reports
// whether h heads a loop.
func (l *licm) loopAt(h int) bool {
	c := &l.cfg
	for _, b := range l.blocks {
		l.inLoop[b] = false
	}
	l.blocks = l.blocks[:0]
	l.inLoop = resize(l.inLoop, len(c.f.Blocks))
	for _, u := range c.preds[h] {
		if !c.dominates(h, u) {
			continue // not a back edge
		}
		if len(l.blocks) == 0 {
			l.inLoop[h] = true
			l.blocks = append(l.blocks, h)
		}
		// Walk backwards from u collecting nodes that reach u without
		// passing through h.
		l.stack = append(l.stack[:0], u)
		for len(l.stack) > 0 {
			b := l.stack[len(l.stack)-1]
			l.stack = l.stack[:len(l.stack)-1]
			if l.inLoop[b] {
				continue
			}
			l.inLoop[b] = true
			l.blocks = append(l.blocks, b)
			l.stack = append(l.stack, c.preds[b]...)
		}
	}
	// hoist visits the blocks in ascending order, which fixes the order of
	// the preheader's instructions: generated code *is* layout.
	slices.Sort(l.blocks)
	return len(l.blocks) > 0
}

// countDefs counts definitions of each register inside the current loop.
func (l *licm) countDefs(f *ir.Function) []int {
	l.defs = resize(l.defs, f.NumRegs)
	clear(l.defs)
	for _, b := range l.blocks {
		for i := range f.Blocks[b].Instrs {
			in := &f.Blocks[b].Instrs[i]
			if in.Op == ir.OpNop {
				continue
			}
			if in.Dst != ir.NoReg && !in.Op.IsStore() {
				l.defs[in.Dst]++
			}
		}
	}
	return l.defs
}

// hoist moves the current loop's invariant computations into a new
// preheader of header and reports whether it moved any.
func (l *licm) hoist(f *ir.Function, header int) bool {
	defs := l.countDefs(f)

	// An instruction may move only once its operands are defined outside
	// the loop, so iterate to a fixpoint; the resulting hoisted sequence is
	// automatically in dependency order.
	var hoisted []ir.Instr
	for moved := true; moved; {
		moved = false
		for _, b := range l.blocks {
			blk := f.Blocks[b]
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if in.Op == ir.OpNop || !isPure(in.Op) || in.Dst == ir.NoReg {
					continue
				}
				if defs[in.Dst] != 1 {
					continue
				}
				if in.A != ir.NoReg && defs[in.A] != 0 {
					continue
				}
				if in.B != ir.NoReg && defs[in.B] != 0 {
					continue
				}
				if !readsConfined(f, b, i, in.Dst) {
					continue
				}
				hoisted = append(hoisted, *in)
				in.Op, in.A, in.B, in.Args = ir.OpNop, ir.NoReg, ir.NoReg, nil
				defs[in.Dst] = 0 // now defined outside the loop
				moved = true
			}
		}
	}
	if len(hoisted) == 0 {
		return false
	}

	// Build a preheader and retarget the non-back-edge predecessors of the
	// header to it.
	pre := len(f.Blocks)
	f.Blocks = append(f.Blocks, &ir.Block{
		Instrs: hoisted,
		Term:   ir.Terminator{Kind: ir.TermJmp, Then: header, Cond: ir.NoReg, Val: ir.NoReg},
	})
	for _, p := range l.cfg.preds[header] {
		if l.inLoop[p] {
			continue // back edge stays on the header
		}
		t := &f.Blocks[p].Term
		if t.Kind == ir.TermJmp || t.Kind == ir.TermBr {
			if t.Then == header {
				t.Then = pre
			}
			if t.Kind == ir.TermBr && t.Else == header {
				t.Else = pre
			}
		}
	}
	if header == 0 {
		// The entry block cannot have a preheader spliced in front without
		// renumbering; loops produced by the builder never start at block
		// 0, but guard anyway by swapping the blocks.
		f.Blocks[0], f.Blocks[pre] = f.Blocks[pre], f.Blocks[0]
		remapTargets(f, map[int]int{0: pre, pre: 0})
	}
	return true
}

// readsConfined reports whether every read of reg in the whole function
// occurs inside the loop, in block b, strictly after instruction index i.
// (Reads outside the loop would observe the hoisted value even when the loop
// body never runs, so they disqualify hoisting; reads before the definition
// would observe the previous value.)
func readsConfined(f *ir.Function, b, i int, reg ir.Reg) bool {
	reads := func(in *ir.Instr, r ir.Reg) bool {
		if in.A == r || in.B == r {
			return true
		}
		if in.Op == ir.OpStoreH || in.Op == ir.OpStoreHF {
			if in.Dst == r {
				return true
			}
		}
		for _, a := range in.Args {
			if a == r {
				return true
			}
		}
		return false
	}
	for bb, blk := range f.Blocks {
		for j := range blk.Instrs {
			in := &blk.Instrs[j]
			if in.Op == ir.OpNop {
				continue
			}
			if reads(in, reg) && !(bb == b && j > i) {
				return false
			}
		}
		if blk.Term.Cond == reg || blk.Term.Val == reg {
			if bb != b {
				return false
			}
		}
	}
	return true
}

// remapTargets rewrites all terminator targets through the given mapping.
func remapTargets(f *ir.Function, mapping map[int]int) {
	for _, b := range f.Blocks {
		if nb, ok := mapping[b.Term.Then]; ok {
			b.Term.Then = nb
		}
		if b.Term.Kind == ir.TermBr {
			if nb, ok := mapping[b.Term.Else]; ok {
				b.Term.Else = nb
			}
		}
	}
}

// GlobalCSE extends value numbering across blocks along the dominator tree.
// To stay sound without SSA, it only records expressions whose destination
// and operands each have a single definition in the whole function; such a
// value is available at every block the defining block dominates.
type GlobalCSE struct{}

// Name implements Pass.
func (GlobalCSE) Name() string { return "globalcse" }

// Run implements Pass.
func (GlobalCSE) Run(m *ir.Module) {
	var g gcse
	for _, f := range m.Funcs {
		g.function(f)
	}
}

// gcse holds GlobalCSE's tables, reused by every function of a pass.
type gcse struct {
	defs  []int     // definitions of each register in the function
	avail exprTable // x and y: first and last of the expression's defs in chain
	chain []gcseDef
	cfg   cfg
}

// gcseDef is an available definition of an expression: the register that
// holds it, the block that computes it, and the next definition of the
// same expression (-1 for none), in the order they were recorded.
type gcseDef struct {
	reg         ir.Reg
	block, next int32
}

func (g *gcse) function(f *ir.Function) {
	g.defs = resize(g.defs, f.NumRegs)
	clear(g.defs)
	instrs := 0
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpNop && in.Dst != ir.NoReg && !in.Op.IsStore() {
				g.defs[in.Dst]++
			}
		}
	}
	single := func(r ir.Reg) bool { return r == ir.NoReg || g.defs[r] == 1 }

	c := &g.cfg
	c.build(f)
	g.avail.reset(instrs)
	g.chain = g.chain[:0]
	for _, bi := range c.order {
		blk := f.Blocks[bi]
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op == ir.OpNop || !isPure(in.Op) || in.Dst == ir.NoReg {
				continue
			}
			if !single(in.Dst) || !single(in.A) || !single(in.B) {
				continue
			}
			key := exprKey{op: in.Op, a: int32(in.A), b: int32(in.B), imm: in.Imm}
			e := g.avail.find(key)
			known := e.gen == g.avail.gen
			replaced := false
			for d := e.x; known && d >= 0; d = g.chain[d].next {
				if def := g.chain[d]; def.reg != in.Dst && c.dominates(int(def.block), bi) {
					in.Op, in.A, in.B, in.Imm = ir.OpMov, def.reg, ir.NoReg, 0
					replaced = true
					break
				}
			}
			if replaced {
				continue
			}
			d := int32(len(g.chain))
			g.chain = append(g.chain, gcseDef{reg: in.Dst, block: int32(bi), next: -1})
			if known {
				g.chain[e.y].next = d
				e.y = d
			} else {
				*e = exprSlot{key: key, gen: g.avail.gen, x: d, y: d}
			}
		}
	}
}
