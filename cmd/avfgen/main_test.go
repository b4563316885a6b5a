package main

import (
	"bytes"
	"testing"

	"avfstress/internal/experiments"
)

// TestBadConfigFailsWithSharedError: an unknown -config fails the
// command with exit 1 and the error of the resolver every command
// shares, before any listing is printed.
func TestBadConfigFailsWithSharedError(t *testing.T) {
	_, want := experiments.ResolveConfig("confA", 1)
	if want == nil {
		t.Fatal("ResolveConfig accepted confA")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ref", "baseline", "-config", "confA"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if got, want := stderr.String(), "avfgen: "+want.Error()+"\n"; got != want {
		t.Errorf("stderr %q, want %q", got, want)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a listing:\n%s", stdout.String())
	}
}
