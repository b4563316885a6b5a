package prog_test

import (
	"testing"

	"avfstress/internal/uarch"
	"avfstress/internal/workloads"
)

// BenchmarkProgramFingerprint measures the simcache key layer: one op
// fingerprints all 33 workload proxies built on the scale-32 baseline.
func BenchmarkProgramFingerprint(b *testing.B) {
	progs, err := workloads.BuildAll(uarch.Scaled(uarch.Baseline(), 32), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range progs {
			p.Fingerprint()
		}
	}
}
