package interp

import "repro/internal/ir"

// ForgetTrace drops the trace m keeps and its over-cap mark, so that a test
// can record for m again under another runtime or seed.
func ForgetTrace(m *ir.Module) {
	lm := lowered(m)
	lm.kept.Store(nil)
	lm.overCap.Store(false)
}
