package main

import (
	"bytes"
	"testing"

	"avfstress/internal/experiments"
)

// TestBadNamesFailWithSharedError: an unknown -config or -rates fails
// the command with exit 1 and the error of the resolver every command
// shares, before anything is simulated.
func TestBadNamesFailWithSharedError(t *testing.T) {
	_, cfgErr := experiments.ResolveConfig("confA", 32)
	_, ratesErr := experiments.ResolveRates("uniformish")
	if cfgErr == nil || ratesErr == nil {
		t.Fatalf("resolvers accepted bad names: %v, %v", cfgErr, ratesErr)
	}
	for _, tc := range []struct {
		args []string
		want error
	}{
		{[]string{"-workload", "403.gcc", "-config", "confA"}, cfgErr},
		{[]string{"-stressmark", "baseline", "-rates", "uniformish"}, ratesErr},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", tc.args, code)
		}
		if want := "avfsim: " + tc.want.Error() + "\n"; stderr.String() != want {
			t.Errorf("%v: stderr %q, want %q", tc.args, stderr.String(), want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a report:\n%s", tc.args, stdout.String())
		}
	}
}
