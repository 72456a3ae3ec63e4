package traj

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
)

// Tracing is observation only: a traced trajectory must return a Result
// bit-identical to the untraced run at the same (config, mode, seed), and
// the paired-seed contract — every arm facing the same seed sees the same
// defect timeline — must hold with the tracer attached. The emitted stream
// must also satisfy the schema contract end to end, with one schema for a
// lone patch and a layout: every epoch event carries the chunk's shot
// timings.
func TestRunTraceInvariant(t *testing.T) {
	const seed = 7 // paired across arms: identical timelines per mode
	for _, layout := range []*LayoutConfig{nil, {Patches: 2, Program: "simon"}} {
		for _, mode := range allModes() {
			name := mode.String()
			if layout != nil {
				name += "/2-patch"
			}
			cfg := QuickConfig()
			cfg.Layout = layout
			cfg.Cache = sim.NewDEMCache(0)
			plain, err := Run(cfg, mode, seed)
			if err != nil {
				t.Fatalf("%s untraced: %v", name, err)
			}

			var buf bytes.Buffer
			traced := cfg
			traced.Cache = sim.NewDEMCache(0)
			traced.Trace = obs.NewTracer(&buf)
			traced.TraceTraj = 3
			got, err := Run(traced, mode, seed)
			if err != nil {
				t.Fatalf("%s traced: %v", name, err)
			}
			if !reflect.DeepEqual(got, plain) {
				t.Errorf("%s: traced result diverges from untraced:\n traced: %+v\nuntraced: %+v", name, got, plain)
			}
			if err := traced.Trace.Err(); err != nil {
				t.Fatalf("%s: tracer error: %v", name, err)
			}

			n, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: emitted trace fails schema validation: %v", name, err)
			}
			if n == 0 {
				t.Fatalf("%s: traced run emitted no events", name)
			}
			// Every trajectory closes with exactly one end event carrying the
			// Result's counters, attributed to the configured trajectory
			// index, and every epoch event carries its shot timings.
			ends, epochs := 0, 0
			for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
				var ev obs.TraceEvent
				if err := json.Unmarshal(line, &ev); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				switch ev.Type {
				case obs.TraceEnd:
					ends++
					if ev.Arm != mode.String() || ev.Traj != 3 {
						t.Errorf("%s: end event %s not attributed to arm %s, traj 3", name, line, mode)
					}
				case obs.TraceEpoch:
					epochs++
					if ev.SampleNs <= 0 {
						t.Errorf("%s: epoch event %s carries no sample_ns", name, line)
					}
				}
			}
			if ends != 1 {
				t.Errorf("%s: %d end events, want 1", name, ends)
			}
			if epochs == 0 {
				t.Errorf("%s: no epoch events", name)
			}
		}
	}
}
