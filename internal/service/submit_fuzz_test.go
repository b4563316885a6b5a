package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"avfstress/internal/experiments"
	"avfstress/internal/scenario"
)

// FuzzSubmitBody: any POST /v1/jobs body is answered 202, 400 or 429 —
// never a 5xx, never a panic — a 202 body is exactly one JSON value
// plus whitespace, and an admitted job's resolved scenarios re-resolve
// unchanged, both from the spec the job echoes (what journal recovery
// resolves) and from the names alone. Jobs run through the testRunJob
// seam, so no input simulates. The seed corpus (testdata/fuzz) holds
// valid registered, parametric and empty specs plus unknown fields, bad
// enums, negative and oversized budgets, trailing garbage, a trailing second value
// and non-JSON.
func FuzzSubmitBody(f *testing.F) {
	testRunJob = func(context.Context, *job) (string, error) { return "fuzz report", nil }
	srv, err := New(Options{MaxJobs: 1, MaxQueue: 8, maxHistory: 16})
	if err != nil {
		f.Fatal(err)
	}
	// Every admitted job must have ended before the seam is removed, or
	// a late one would run real experiments.
	f.Cleanup(func() {
		abandon(f, srv)
		testRunJob = nil
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusAccepted:
			if !json.Valid(body) {
				t.Fatalf("body %q is not exactly one JSON value but was admitted", body)
			}
		case http.StatusBadRequest, http.StatusTooManyRequests:
			return
		default:
			t.Fatalf("body %q answered %d: %s", body, w.Code, w.Body)
		}
		var st JobStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("202 body does not decode: %v\n%s", err, w.Body)
		}
		for _, sp := range []scenario.Spec{st.Spec, {Scenarios: st.Scenarios}} {
			again, err := experiments.ResolveSpec(sp)
			if err != nil {
				t.Fatalf("admitted job %s (%q) rejected on re-resolution of %+v: %v", st.ID, st.Scenarios, sp, err)
			}
			if !slices.Equal(again, st.Scenarios) {
				t.Fatalf("admitted job %s resolved to %q, re-resolves to %q", st.ID, st.Scenarios, again)
			}
		}
	})
}
