package interp

import "fmt"

// Engine selects the execution strategy. Both engines implement identical
// semantics — byte-identical digests, identical machine-counter sequences,
// identical Observer windows, identical trap and exception behaviour — and
// the cross-engine differential suite holds them to it. They differ only in
// host speed: the compiled engine pre-lowers each module into flat closure
// streams and drives the machine through precomputed fast paths, while the
// walk engine re-decodes the IR tree on every instruction and remains the
// (slower, simpler) differential reference.
type Engine uint8

const (
	// EngineCompiled pre-lowers IR into a flat instruction stream of fused
	// closures (the default).
	EngineCompiled Engine = iota
	// EngineWalk is the original tree-walk interpreter, kept as the
	// differential reference.
	EngineWalk
)

// String returns the engine's name, as artifacts and throughput cell keys
// spell it.
func (e Engine) String() string {
	switch e {
	case EngineCompiled:
		return "compiled"
	case EngineWalk:
		return "walk"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// Engines lists the selectable engines, compiled first (the default).
func Engines() []Engine { return []Engine{EngineCompiled, EngineWalk} }
