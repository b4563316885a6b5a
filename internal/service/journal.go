package service

// The durable job journal (DESIGN.md §11): an append-only file of
// CRC-framed JSON lines recording every accepted submission and every
// terminal outcome. On startup the daemon replays the journal, restores
// terminal jobs as history and resubmits every job that never reached a
// terminal state — and because all simulation work is memoised
// content-addressed in the simcache, a resubmitted job re-runs only the
// work that never completed; its recovered report is byte-identical to
// an uninterrupted run.
//
// Line format: 8 lowercase hex digits of CRC-32C over the JSON bytes, a
// space, the JSON record, '\n'. Appends are fsynced — a job submission
// is durable by the time the client sees 202. Readers skip lines that
// fail the checksum or do not parse (counted, surfaced in /v1/healthz);
// a torn final line from a crash mid-append is therefore tolerated by
// construction. On startup the journal is compacted through the same
// atomic temp+rename discipline as every other durable artefact
// (internal/persist), so it stays bounded by the daemon's job history
// rather than its total lifetime.

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"avfstress/internal/persist"
	"avfstress/internal/scenario"
)

// Journal operations.
const (
	journalOpSubmit = "submit" // a job was accepted
	journalOpEnd    = "end"    // a job reached a terminal state
	// Earlier daemons also journalled job-claim grants and steals of a
	// multi-process campaign mode since removed (DESIGN.md §13). Their
	// journals still decode: the two ops are known records that replay
	// ignores, and startup compaction drops them.
	journalOpLegacyLease = "lease"
	journalOpLegacySteal = "steal"
)

// journalRecord is one journal line.
type journalRecord struct {
	Op string `json:"op"`
	ID string `json:"id"`
	// Submit fields.
	Spec    *scenario.Spec `json:"spec,omitempty"`
	IdemKey string         `json:"idem_key,omitempty"`
	// End fields.
	Status Status `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`

	Time time.Time `json:"time"`
}

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// encodeJournalLine renders one framed journal line.
func encodeJournalLine(rec journalRecord) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("service: journal encode: %w", err)
	}
	return []byte(fmt.Sprintf("%08x %s\n", crc32.Checksum(data, journalCRC), data)), nil
}

// decodeJournalLine parses one line; any validation failure returns an
// error (the caller skips and counts the line).
func decodeJournalLine(line string) (journalRecord, error) {
	var rec journalRecord
	crcHex, data, ok := strings.Cut(line, " ")
	if !ok || len(crcHex) != 8 {
		return rec, fmt.Errorf("service: journal line has no checksum")
	}
	var want uint32
	if _, err := fmt.Sscanf(crcHex, "%08x", &want); err != nil {
		return rec, fmt.Errorf("service: journal checksum: %w", err)
	}
	if fmt.Sprintf("%08x", want) != crcHex {
		return rec, fmt.Errorf("service: journal checksum %q not canonical", crcHex)
	}
	if got := crc32.Checksum([]byte(data), journalCRC); got != want {
		return rec, fmt.Errorf("service: journal checksum %08x, want %08x", got, want)
	}
	if err := json.Unmarshal([]byte(data), &rec); err != nil {
		return rec, fmt.Errorf("service: journal decode: %w", err)
	}
	switch rec.Op {
	case journalOpSubmit, journalOpEnd, journalOpLegacyLease, journalOpLegacySteal:
	default:
		return rec, fmt.Errorf("service: journal op %q unknown", rec.Op)
	}
	if rec.ID == "" {
		return rec, fmt.Errorf("service: journal record has no job id")
	}
	return rec, nil
}

// journal is the open append handle plus its health counters.
type journal struct {
	mu         sync.Mutex
	path       string
	f          *os.File
	disabled   bool // closed, or crash-simulated by tests
	records    int64
	corrupt    int64
	appendErrs int64
}

// openJournal reads (tolerantly) and opens the journal at path,
// returning the surviving records in file order.
func openJournal(path string) (*journal, []journalRecord, error) {
	jl := &journal{path: path}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("service: journal: %w", err)
	}
	var recs []journalRecord
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		rec, derr := decodeJournalLine(line)
		if derr != nil {
			jl.corrupt++
			continue
		}
		recs = append(recs, rec)
	}
	jl.records = int64(len(recs))
	if err := jl.openFile(); err != nil {
		return nil, nil, err
	}
	return jl, recs, nil
}

func (jl *journal) openFile() error {
	if dir := filepath.Dir(jl.path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("service: journal: %w", err)
		}
	}
	f, err := os.OpenFile(jl.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	jl.f = f
	return nil
}

// append durably writes one record (write + fsync under the lock, so
// records never interleave). Failures are counted, not fatal: the
// daemon prefers serving with a degraded journal over refusing work,
// and /v1/healthz surfaces the degradation.
func (jl *journal) append(rec journalRecord) error {
	if jl == nil {
		return nil
	}
	line, err := encodeJournalLine(rec)
	if err != nil {
		return err
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.disabled || jl.f == nil {
		return nil
	}
	if _, err := jl.f.Write(line); err != nil {
		jl.appendErrs++
		return fmt.Errorf("service: journal append: %w", err)
	}
	if err := jl.f.Sync(); err != nil {
		jl.appendErrs++
		return fmt.Errorf("service: journal sync: %w", err)
	}
	jl.records++
	return nil
}

// rewrite atomically replaces the journal with recs (startup
// compaction): temp + rename, then a fresh append handle.
func (jl *journal) rewrite(recs []journalRecord) error {
	if jl == nil {
		return nil
	}
	var b strings.Builder
	for _, rec := range recs {
		line, err := encodeJournalLine(rec)
		if err != nil {
			return err
		}
		b.Write(line)
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.disabled {
		return nil
	}
	if jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
	if err := persist.WriteFileAtomic(jl.path, []byte(b.String())); err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
	jl.records = int64(len(recs))
	return jl.openFile()
}

// close flushes and closes the journal; later appends are no-ops.
func (jl *journal) close() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.disabled = true
	if jl.f != nil {
		jl.f.Sync()
		jl.f.Close()
		jl.f = nil
	}
}

// health snapshots the journal counters for /v1/healthz.
func (jl *journal) health() (records, corrupt, appendErrs int64) {
	if jl == nil {
		return 0, 0, 0
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.records, jl.corrupt, jl.appendErrs
}
