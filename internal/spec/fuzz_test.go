package spec_test

import (
	"bytes"
	"testing"

	"clustersim/internal/check"
	"clustersim/internal/isa"
	"clustersim/internal/pipeline"
	"clustersim/internal/spec"
	"clustersim/internal/workload"
)

// FuzzSpec throws arbitrary documents at the parser. Whatever parses must
// serialize to a fixed point, compile, and drive the simulator without
// tripping a cycle-level invariant — the format's validation bounds are
// exactly what make that promise safe to fuzz.
func FuzzSpec(f *testing.F) {
	for _, c := range roundTripCases {
		f.Add([]byte(c.input))
	}
	for _, c := range malformedCases {
		f.Add([]byte(c.input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := spec.Parse(data)
		if err != nil {
			return
		}
		out, err := s.Serialize()
		if err != nil {
			t.Fatalf("validated spec failed to serialize: %v", err)
		}
		s2, err := spec.Parse(out)
		if err != nil {
			t.Fatalf("canonical serialization failed to re-parse: %v\n%s", err, out)
		}
		out2, err := s2.Serialize()
		if err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("serialization is not a fixed point:\n%s\nvs\n%s", out, out2)
		}
		if len(s.Mix) > 0 {
			// Mix entries may name unknown benchmarks; that is a compile
			// error, not a panic.
			if threads, err := workload.CompileMix(s, 1); err == nil {
				var in isa.Instruction
				for _, th := range threads {
					for i := 0; i < 64; i++ {
						th.Gen.Next(&in)
					}
				}
			}
			return
		}
		gen, err := workload.Compile(s, 1)
		if err != nil {
			t.Fatalf("validated single-program spec failed to compile: %v", err)
		}
		// Small documents get a real simulation under the fail-fast
		// invariant checker; big ones just prove the generator streams.
		if len(data) <= 4096 {
			cfg := pipeline.DefaultConfig()
			chk := check.NewFailFast()
			cfg.Checker = chk
			p, err := pipeline.New(cfg, gen, nil)
			if err != nil {
				t.Fatalf("pipeline.New: %v", err)
			}
			if _, err := p.Run(2000); err != nil {
				t.Fatalf("simulating a valid spec failed: %v", err)
			}
			if err := chk.Err(); err != nil {
				t.Fatalf("invariant violation: %v", err)
			}
			return
		}
		var in isa.Instruction
		for i := 0; i < 256; i++ {
			gen.Next(&in)
		}
	})
}
