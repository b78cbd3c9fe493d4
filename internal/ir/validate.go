package ir

import (
	"fmt"
	"strings"
)

// Validate checks structural invariants of a module: every block terminated,
// branch targets in range, register and symbol indices valid, call arities
// matching, and an entry function present. Passes run it after transforming.
func (m *Module) Validate() error {
	if len(m.Funcs) == 0 {
		return fmt.Errorf("ir: module %s has no functions", m.Name)
	}
	for fi, f := range m.Funcs {
		if err := m.validateFunc(fi, f); err != nil {
			return err
		}
	}
	return nil
}

func (m *Module) validateFunc(fi int, f *Function) error {
	errf := func(format string, args ...any) error {
		return fmt.Errorf("ir: %s (fn %d): %s", f.Name, fi, fmt.Sprintf(format, args...))
	}
	if f.Params > f.NumRegs {
		return errf("%d params but only %d registers", f.Params, f.NumRegs)
	}
	if len(f.Blocks) == 0 {
		return errf("no blocks")
	}
	// A register is valid if it is NoReg (-1) or in 0..NumRegs-1, that is
	// if r+1, as an unsigned number, is at most NumRegs.
	limit := uint64(max(f.NumRegs, 0))
	badReg := func(r Reg) bool { return uint64(int64(r)+1) > limit }
	regErr := func(r Reg, what string, bi, ii int) error {
		return errf("block %d instr %d: %s register %d out of range", bi, ii, what, r)
	}
	for bi, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op == OpNop {
				continue
			}
			if in.Op >= opCount {
				return errf("block %d instr %d: bad opcode %d", bi, ii, in.Op)
			}
			switch {
			case badReg(in.Dst):
				return regErr(in.Dst, "dst", bi, ii)
			case badReg(in.A):
				return regErr(in.A, "A", bi, ii)
			case badReg(in.B):
				return regErr(in.B, "B", bi, ii)
			}
			for _, a := range in.Args {
				if badReg(a) {
					return regErr(a, "arg", bi, ii)
				}
			}
			switch in.Op {
			case OpLoadG, OpStoreG, OpLoadGF, OpStoreGF:
				if int(in.Sym) < 0 || int(in.Sym) >= len(m.Globals) {
					return errf("block %d instr %d: global %d out of range", bi, ii, in.Sym)
				}
			case OpLoadS, OpStoreS, OpLoadSF, OpStoreSF:
				if int(in.Sym) < 0 || int(in.Sym) >= len(f.Slots) {
					return errf("block %d instr %d: stack slot %d out of range", bi, ii, in.Sym)
				}
			case OpCall:
				if int(in.Sym) < 0 || int(in.Sym) >= len(m.Funcs) {
					return errf("block %d instr %d: callee %d out of range", bi, ii, in.Sym)
				}
				callee := m.Funcs[in.Sym]
				if len(in.Args) != callee.Params {
					return errf("block %d instr %d: call to %s with %d args, want %d",
						bi, ii, callee.Name, len(in.Args), callee.Params)
				}
				if h := int(in.Imm) - 1; in.Imm != 0 && (h < 0 || h >= len(f.Blocks)) {
					return errf("block %d instr %d: invoke handler %d out of range", bi, ii, h)
				}
			}
		}
		switch b.Term.Kind {
		case TermNone:
			return errf("block %d not terminated", bi)
		case TermJmp:
			if b.Term.Then < 0 || b.Term.Then >= len(f.Blocks) {
				return errf("block %d: jump target %d out of range", bi, b.Term.Then)
			}
		case TermBr:
			if badReg(b.Term.Cond) {
				return regErr(b.Term.Cond, "cond", bi, -1)
			}
			if b.Term.Cond == NoReg {
				return errf("block %d: conditional branch without condition", bi)
			}
			if b.Term.Then < 0 || b.Term.Then >= len(f.Blocks) ||
				b.Term.Else < 0 || b.Term.Else >= len(f.Blocks) {
				return errf("block %d: branch targets (%d,%d) out of range", bi, b.Term.Then, b.Term.Else)
			}
		case TermRet:
			if badReg(b.Term.Val) {
				return regErr(b.Term.Val, "ret", bi, -1)
			}
		default:
			return errf("block %d: bad terminator kind %d", bi, b.Term.Kind)
		}
	}
	return nil
}

// String renders the module in a readable assembly-like form.
func (m *Module) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	for gi, g := range m.Globals {
		fmt.Fprintf(&sb, "  global @%d %s [%d bytes]\n", gi, g.Name, g.Size)
	}
	for fi, f := range m.Funcs {
		fmt.Fprintf(&sb, "fn %d %s(params=%d regs=%d)", fi, f.Name, f.Params, f.NumRegs)
		if f.NoRelocate {
			sb.WriteString(" norelocate")
		}
		sb.WriteString("\n")
		for si, s := range f.Slots {
			fmt.Fprintf(&sb, "  slot %d %s [%d bytes @%d]\n", si, s.Name, s.Size, s.Off)
		}
		for bi, b := range f.Blocks {
			fmt.Fprintf(&sb, " b%d:\n", bi)
			for _, in := range b.Instrs {
				if in.Op == OpNop {
					continue
				}
				fmt.Fprintf(&sb, "    %s\n", formatInstr(in))
			}
			fmt.Fprintf(&sb, "    %s\n", formatTerm(b.Term))
		}
	}
	return sb.String()
}

func regStr(r Reg) string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("r%d", r)
}

func formatInstr(in Instr) string {
	switch {
	case in.Op == OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = regStr(a)
		}
		return fmt.Sprintf("%s = call f%d(%s)", regStr(in.Dst), in.Sym, strings.Join(args, ", "))
	case in.Op.IsStore():
		return fmt.Sprintf("%s [sym=%d imm=%d idx=%s] val=%s a=%s",
			in.Op, in.Sym, in.Imm, regStr(in.B), regStr(in.Dst), regStr(in.A))
	default:
		return fmt.Sprintf("%s = %s %s, %s (imm=%d sym=%d)",
			regStr(in.Dst), in.Op, regStr(in.A), regStr(in.B), in.Imm, in.Sym)
	}
}

func formatTerm(t Terminator) string {
	switch t.Kind {
	case TermJmp:
		return fmt.Sprintf("jmp b%d", t.Then)
	case TermBr:
		return fmt.Sprintf("br %s, b%d, b%d", regStr(t.Cond), t.Then, t.Else)
	case TermRet:
		return fmt.Sprintf("ret %s", regStr(t.Val))
	}
	return "<unterminated>"
}

// Clone returns a deep copy of the module. Pipelines clone before mutating so
// that one source module can be compiled at several optimization levels.
func (m *Module) Clone() *Module {
	nm := &Module{Name: m.Name}
	nm.Globals = make([]Global, len(m.Globals))
	for i, g := range m.Globals {
		ng := g
		ng.Init = append([]int64(nil), g.Init...)
		nm.Globals[i] = ng
	}
	nm.Funcs = make([]*Function, len(m.Funcs))
	for i, f := range m.Funcs {
		nf := &Function{
			Name:       f.Name,
			Params:     f.Params,
			NumRegs:    f.NumRegs,
			FrameSize:  f.FrameSize,
			Size:       f.Size,
			NoRelocate: f.NoRelocate,
		}
		nf.Slots = append([]StackSlot(nil), f.Slots...)
		nf.Blocks = make([]*Block, len(f.Blocks))
		for bi, b := range f.Blocks {
			nb := &Block{Term: b.Term, Off: b.Off, Size: b.Size, Live: b.Live}
			nb.Instrs = make([]Instr, len(b.Instrs))
			for ii, in := range b.Instrs {
				ni := in
				ni.Args = append([]Reg(nil), in.Args...)
				nb.Instrs[ii] = ni
			}
			nf.Blocks[bi] = nb
		}
		nm.Funcs[i] = nf
	}
	return nm
}
