package sim

import "cagc/internal/trace"

// Run is the one-call entry point: build, precondition, replay.
func Run(cfg Config, spec trace.Spec) (*Result, error) {
	return Measure(nil, cfg, spec, Measured{})
}
