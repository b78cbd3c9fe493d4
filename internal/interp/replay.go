package interp

import (
	"repro/internal/mem"
)

// revent is one step of a segment's machine-visible work that a replay
// repeats (see trace.go): a stall, a data access whose address comes from
// the layout and, for a dynamic operand, from the trace, or a heap runtime
// call. A segment's events keep its ops' program order; consecutive stalls
// are summed, but no stall moves across a data access or a runtime call.
type revent struct {
	kind rkind
	fp   bool // a float access: stalls if its address is not 16-byte aligned
	g    int32
	x    uint64
}

type rkind uint8

const (
	rvStall     rkind = iota // Stall(x)
	rvGlobal                 // global g at byte offset x
	rvGlobalDyn              // global g at a traced byte offset
	rvStack                  // the frame at offset x
	rvStackDyn               // the slot at frame offset x, at a traced byte offset
	rvHeap                   // a traced handle at a traced byte offset
	rvAlloc                  // Alloc of an x-byte object
	rvFree                   // Free of a traced handle
	rvFail                   // a slow op, which no completed recording ran
)

// replayBlock holds one lowered block's events, one list per segment.
type replayBlock struct {
	segs [][]revent
}

// replayForm returns the module's replay lists, indexed by function and
// block. They are built on the module's first replay and kept with its
// lowered code.
func (lm *lowModule) replayForm() [][]replayBlock {
	lm.replayOnce.Do(func() {
		lm.replay = make([][]replayBlock, len(lm.funcs))
		for fi, lf := range lm.funcs {
			lm.replay[fi] = lf.replayBlocks()
		}
	})
	return lm.replay
}

func (lf *lowFunc) replayBlocks() []replayBlock {
	// One backing array per function; segments are cut from it afterwards,
	// once appends can no longer move it.
	var evs []revent
	var bounds []int
	for bi := range lf.blocks {
		for si := range lf.blocks[bi].segs {
			start := len(evs)
			for i := range lf.blocks[bi].segs[si].ops {
				evs = lf.appendEvents(evs, start, &lf.blocks[bi].segs[si].ops[i])
			}
			bounds = append(bounds, len(evs))
		}
	}
	out := make([]replayBlock, len(lf.blocks))
	lo, k := 0, 0
	for bi := range lf.blocks {
		segs := make([][]revent, len(lf.blocks[bi].segs))
		for si := range segs {
			hi := bounds[k]
			segs[si] = evs[lo:hi:hi]
			lo, k = hi, k+1
		}
		out[bi].segs = segs
	}
	return out
}

// appendEvents appends the events of one cinstr, its primary op and then
// its fused secondary, as runOps executes them, to the segment that starts
// at evs[start].
func (lf *lowFunc) appendEvents(evs []revent, start int, in *cinstr) []revent {
	switch in.op {
	case copLoadG, copLoadGF, copStoreG, copStoreGF:
		evs = append(evs, revent{kind: rvGlobal, g: in.a, x: in.x,
			fp: in.op == copLoadGF || in.op == copStoreGF})
	case copLoadGD, copLoadGFD, copStoreGD, copStoreGFD:
		evs = append(evs, revent{kind: rvGlobalDyn, g: in.b2,
			fp: in.op == copLoadGFD || in.op == copStoreGFD})
	case copLoadS, copLoadSF, copStoreS, copStoreSF:
		evs = append(evs, revent{kind: rvStack, x: in.x,
			fp: in.op == copLoadSF || in.op == copStoreSF})
	case copLoadSD, copLoadSFD, copStoreSD, copStoreSFD:
		evs = append(evs, revent{kind: rvStackDyn, x: lf.pool[in.x],
			fp: in.op == copLoadSFD || in.op == copStoreSFD})
	case copLoadH, copLoadHF, copStoreH, copStoreHF:
		evs = append(evs, revent{kind: rvHeap, fp: in.op == copLoadHF || in.op == copStoreHF})
	case copAlloc:
		evs = append(evs, revent{kind: rvAlloc, x: in.x})
	case copFree:
		evs = append(evs, revent{kind: rvFree})
	case copSlow:
		evs = append(evs, revent{kind: rvFail})
	default:
		evs = appendStall(evs, start, stallOf(in.op))
	}
	switch in.op2 {
	case copLoadS, copLoadSF, copStoreS, copStoreSF:
		evs = append(evs, revent{kind: rvStack, x: in.x,
			fp: in.op2 == copLoadSF || in.op2 == copStoreSF})
	case copLoadG, copLoadGF, copStoreG, copStoreGF:
		evs = append(evs, revent{kind: rvGlobal, g: in.a2, x: in.x,
			fp: in.op2 == copLoadGF || in.op2 == copStoreGF})
	case copLoadH, copLoadHF, copStoreH, copStoreHF:
		evs = append(evs, revent{kind: rvHeap, fp: in.op2 == copLoadHF || in.op2 == copStoreHF})
	case copFree:
		evs = append(evs, revent{kind: rvFree})
	default:
		evs = appendStall(evs, start, stallOf(in.op2))
	}
	return evs
}

// stallOf is the fixed stall runOps charges for a register op.
func stallOf(op copcode) uint64 {
	switch op {
	case copMul, copFMul:
		return 2
	case copDiv, copRem:
		return 20
	case copFDiv:
		return 12
	case copI2F, copF2I:
		return 3
	}
	return 0
}

// appendStall adds n cycles of stall to the segment that starts at
// evs[start], summed into a stall that ends it.
func appendStall(evs []revent, start int, n uint64) []revent {
	if n == 0 {
		return evs
	}
	if k := len(evs) - 1; k >= start && evs[k].kind == rvStall {
		evs[k].x += n
		return evs
	}
	return append(evs, revent{kind: rvStall, x: n})
}

// replayOps replays one segment's events: the machine charges and runtime
// calls its ops made, in their order, at the replay's own addresses.
func (en *cvm) replayOps(fr *cframe, evs []revent) {
	mach := en.mach
	for i := range evs {
		ev := &evs[i]
		var addr mem.Addr
		switch ev.kind {
		case rvStall:
			mach.Stall(ev.x)
			continue
		case rvGlobal:
			addr = en.globalAddr(fr, int(ev.g)) + mem.Addr(ev.x)
		case rvGlobalDyn:
			off := en.operand(opGlobalOff)
			addr = en.globalAddr(fr, int(ev.g)) + mem.Addr(off)
		case rvStack:
			addr = fr.frameBase + mem.Addr(ev.x)
		case rvStackDyn:
			addr = fr.frameBase + mem.Addr(ev.x) + mem.Addr(en.operand(opStackOff))
		case rvHeap:
			h := en.operand(opHeapHandle)
			if uint64(h) >= uint64(len(en.objects)) {
				en.fail(errTraceMismatch)
			}
			obj := &en.objects[h]
			off := obj.traceOff + en.delta()
			obj.traceOff = off
			addr = obj.addr + mem.Addr(off)
		case rvAlloc:
			en.alloc(ev.x)
			continue
		case rvFree:
			h := en.operand(opFreeHandle)
			if uint64(h) >= uint64(len(en.objects)) || !en.objects[h].live {
				en.fail(errTraceMismatch)
			}
			en.release(int(h))
			continue
		default:
			en.fail(errTraceMismatch)
		}
		if !en.fastData8(addr) {
			mach.Data8Miss(addr)
		}
		if ev.fp && uint64(addr)%16 != 0 {
			mach.Stall(mach.Costs.UnalignedFP)
		}
	}
}
