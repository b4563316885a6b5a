package inject

// The cache entry of a whole campaign: its aggregated Result, root-cause
// tables included, keyed by the golden run's inputs plus the campaign's
// own parameters (DESIGN.md §10).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
)

// campaignKeyPart names the campaign entry in its cache key. It names
// the payload format too, and it must be bumped by any change to what
// a campaign computes from its golden run and outcomes — sampling,
// allocation, pruning, aggregation, attribution — or to the Result
// layout (DESIGN.md §7); TestCampaignResultPinned guards it.
const campaignKeyPart = "campaign:json1"

// campaignPart is the campaign entry's key part: campaignKeyPart and
// every defaulted option the result depends on beyond the golden run's
// configuration, program and budget.
func (c *campaign) campaignPart() string {
	o := c.o
	return fmt.Sprintf("%s\x00%s\x00%d\x00%d\x00%t", campaignKeyPart, o.Rates.Fingerprint(), o.Trials, o.Seed, o.RootCause)
}

// resultCodec stores a campaign result as JSON, which round-trips every
// float64 exactly, so a served result renders the bytes of a computed
// one.
var resultCodec = simcache.Codec[*Result]{
	Ext:    ".json",
	Encode: func(r *Result) ([]byte, error) { return json.Marshal(r) },
	Decode: decodeResult,
}

// decodeResult parses a campaign entry strictly: an unknown field, a
// second value, a missing golden run or a stratum count other than
// uarch.NumStructures is undecodable (the store quarantines and
// recomputes the entry).
func decodeResult(b []byte) (*Result, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r *Result
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("inject: campaign entry: %w", err)
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("inject: campaign entry has trailing data")
	}
	if r == nil || r.Golden == nil || len(r.Structures) != int(uarch.NumStructures) {
		return nil, fmt.Errorf("inject: campaign entry is not a campaign result")
	}
	return r, nil
}
