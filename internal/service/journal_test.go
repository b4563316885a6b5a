package service

// Unit tests for the journal container itself: CRC framing, torn-tail
// tolerance, corrupt-line skipping, compaction and replay of journals
// written by earlier daemons (DESIGN.md §11).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"avfstress/internal/scenario"
)

// Journal lines exactly as earlier daemons wrote them: a submission
// with no terminal record, then a job-claim grant and its steal from
// the removed multi-process campaign mode (DESIGN.md §13).
const (
	legacySubmitLine = `bdb3e322 {"op":"submit","id":"job-1","spec":{"scenarios":["table1"]},"time":"2026-08-08T12:00:00Z"}`
	legacyLeaseLine  = `f0eed806 {"op":"lease","id":"runner-1","key":"94f7865e3125ce023ce1c6eaa7072586","time":"2026-10-16T09:30:00Z"}`
	legacyStealLine  = `25024c3b {"op":"steal","id":"runner-1","key":"94f7865e3125ce023ce1c6eaa7072586","time":"2026-10-16T09:30:05Z"}`
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.journal")
}

func submitRec(id string) journalRecord {
	return journalRecord{
		Op: journalOpSubmit, ID: id,
		Spec: &scenario.Spec{Scenarios: []string{"table1"}},
		Time: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
	}
}

func endRec(id string, st Status) journalRecord {
	return journalRecord{Op: journalOpEnd, ID: id, Status: st,
		Time: time.Date(2026, 8, 8, 12, 1, 0, 0, time.UTC)}
}

func TestJournalLineEveryByteFlipDetected(t *testing.T) {
	line, err := encodeJournalLine(submitRec("job-1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeJournalLine(strings.TrimSuffix(string(line), "\n")); err != nil {
		t.Fatalf("pristine line rejected: %v", err)
	}
	for i := 0; i < len(line)-1; i++ { // skip the trailing newline
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), line...)
			mut[i] ^= 1 << bit
			s := strings.TrimSuffix(string(mut), "\n")
			if _, err := decodeJournalLine(s); err == nil {
				t.Fatalf("flip byte %d bit %d accepted: %q", i, bit, s)
			}
		}
	}
}

func TestJournalTornTailAndCorruptMiddle(t *testing.T) {
	path := journalPath(t)
	l1, _ := encodeJournalLine(submitRec("job-1"))
	l2, _ := encodeJournalLine(endRec("job-1", StatusDone))
	l3, _ := encodeJournalLine(submitRec("job-2"))

	// Corrupt the middle line, tear the final one mid-write.
	bad := append([]byte(nil), l2...)
	bad[len(bad)/2] ^= 0x40
	var file []byte
	file = append(file, l1...)
	file = append(file, bad...)
	file = append(file, l3[:len(l3)-5]...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	jl, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	if len(recs) != 1 || recs[0].ID != "job-1" || recs[0].Op != journalOpSubmit {
		t.Fatalf("surviving records %+v, want just job-1 submit", recs)
	}
	if _, corrupt, _ := jl.health(); corrupt != 2 {
		t.Errorf("corrupt lines %d, want 2", corrupt)
	}
}

func TestJournalAppendReloadCompact(t *testing.T) {
	path := journalPath(t)
	jl, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	for _, rec := range []journalRecord{
		submitRec("job-1"), submitRec("job-2"), endRec("job-1", StatusDone),
	} {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.close()

	jl2, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("reloaded %d records, want 3", len(recs))
	}
	if recs[0].ID != "job-1" || recs[1].ID != "job-2" || recs[2].Status != StatusDone {
		t.Errorf("records out of order or lossy: %+v", recs)
	}
	if recs[0].Spec == nil || len(recs[0].Spec.Scenarios) != 1 {
		t.Errorf("spec did not round-trip: %+v", recs[0].Spec)
	}

	// Compaction rewrites atomically and appends keep working after.
	if err := jl2.rewrite([]journalRecord{submitRec("job-2")}); err != nil {
		t.Fatal(err)
	}
	if err := jl2.append(endRec("job-2", StatusFailed)); err != nil {
		t.Fatal(err)
	}
	jl2.close()
	_, recs, err = openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "job-2" || recs[1].Status != StatusFailed {
		t.Errorf("post-compaction records %+v", recs)
	}
	// No temp files left behind by compaction.
	entries, _ := os.ReadDir(filepath.Dir(path))
	for _, e := range entries {
		if e.Name() != filepath.Base(path) {
			t.Errorf("stray file after compaction: %s", e.Name())
		}
	}
}

func TestJournalClosedAppendsAreNoOps(t *testing.T) {
	path := journalPath(t)
	jl, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jl.close()
	if err := jl.append(submitRec("job-1")); err != nil {
		t.Fatalf("append after close errored: %v", err)
	}
	if data, _ := os.ReadFile(path); len(data) != 0 {
		t.Errorf("closed journal grew: %q", data)
	}
	// nil journal (journalling disabled) is inert too.
	var nilJl *journal
	if err := nilJl.append(submitRec("x")); err != nil {
		t.Errorf("nil journal append: %v", err)
	}
	nilJl.close()
}

// TestJournalLegacyLeaseLinesReplayCleanly: a journal holding lease and
// steal lines replays as if they were absent — the unfinished job
// resubmits, the lines count as neither corrupt nor degraded, and
// startup compaction drops them.
func TestJournalLegacyLeaseLinesReplayCleanly(t *testing.T) {
	testRunJob = func(ctx context.Context, j *job) (string, error) { return "report", nil }
	defer func() { testRunJob = nil }()

	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	legacy := legacySubmitLine + "\n" + legacyLeaseLine + "\n" + legacyStealLine + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, hs := durableServer(t, dir, nil)
	if srv.Recovered() != 1 {
		t.Fatalf("recovered %d jobs, want 1", srv.Recovered())
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(compacted, []byte(`"op":"lease"`)) || bytes.Contains(compacted, []byte(`"op":"steal"`)) {
		t.Errorf("compacted journal kept legacy lines:\n%s", compacted)
	}
	if st := waitTerminal(t, hs, "job-1"); st.Status != StatusDone {
		t.Fatalf("resubmitted job ended %s: %s", st.Status, st.Error)
	}
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Journal == nil || h.Journal.CorruptLines != 0 {
		t.Errorf("health %+v (journal %+v), want ok with 0 corrupt lines", h, h.Journal)
	}
}

// FuzzDecodeJournalLine: arbitrary lines must never panic the decoder,
// and every record it accepts must re-encode to a line that decodes to
// the same record. The seed corpus (testdata/fuzz) holds submit, end
// and legacy lease lines plus a torn line, a bad CRC and a
// non-canonical CRC.
func FuzzDecodeJournalLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		// Besides the raw line, decode it as a payload under a valid
		// checksum, so mutations reach the record validation behind the
		// CRC check.
		valid := fmt.Sprintf("%08x %s", crc32.Checksum([]byte(line), journalCRC), line)
		for _, l := range []string{line, valid} {
			checkJournalRoundTrip(t, l)
		}
	})
}

func checkJournalRoundTrip(t *testing.T, line string) {
	rec, err := decodeJournalLine(line)
	if err != nil {
		return
	}
	enc, err := encodeJournalLine(rec)
	if err != nil {
		t.Fatalf("accepted record %+v does not re-encode: %v", rec, err)
	}
	again, err := decodeJournalLine(strings.TrimSuffix(string(enc), "\n"))
	if err != nil {
		t.Fatalf("re-encoded line %q rejected: %v", enc, err)
	}
	// Compared by encoding: a decoded time carries its own location
	// value, and nil and empty scenario lists encode alike.
	if enc2, err := encodeJournalLine(again); err != nil || !bytes.Equal(enc, enc2) ||
		again.Op != rec.Op || again.ID != rec.ID || !again.Time.Equal(rec.Time) {
		t.Fatalf("round trip changed the record:\n%+v\n%+v", rec, again)
	}
}
