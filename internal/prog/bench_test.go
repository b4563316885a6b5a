package prog_test

import (
	"testing"

	"avfstress/internal/prog"
	"avfstress/internal/uarch"
	"avfstress/internal/workloads"
)

// BenchmarkProgramFingerprint measures the simcache key layer: one op
// fingerprints all 33 workload proxies built on the scale-32 baseline.
func BenchmarkProgramFingerprint(b *testing.B) {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	var progs []*prog.Program
	for _, pf := range workloads.Profiles() {
		p, err := pf.Build(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range progs {
			p.Fingerprint()
		}
	}
}
