package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// injRow is one row of an injection table ("target bits trials sdc due
// masked pruned ..."): a campaign in the summary table, a structure or
// "overall" in a campaign's per-structure detail.
type injRow struct {
	Label                            string
	Summary                          bool // row of a cross-campaign summary table
	Trials, SDC, DUE, Masked, Pruned int
}

// rootCauseLine is one "root cause: C corrupted, A attributed, U
// unattributed" line with the campaign it belongs to.
type rootCauseLine struct {
	Campaign                            string
	Corrupted, Attributed, Unattributed int
}

var (
	rootCauseRE   = regexp.MustCompile(`^root cause: (\d+) corrupted, (\d+) attributed, (\d+) unattributed`)
	densityRE     = regexp.MustCompile(`^(\S+) — SDC density`)
	detailRE      = regexp.MustCompile(`^Injection campaign — \S+ on (\S+) \(`)
	perCampaignRE = regexp.MustCompile(`(\d+) trials per campaign`)
)

const summaryTitle = "bit-weighted AVF, injection vs ACE accounting:"

// parseReport extracts every injection-table row and every root-cause
// line from a rendered report.
func parseReport(report string) (rows []injRow, rcs []rootCauseLine, err error) {
	sc := bufio.NewScanner(strings.NewReader(report))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		prev, campaign string
		inTable        bool
		summary        bool
	)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case isInjHeader(line):
			summary = prev == summaryTitle
			inTable = true
		case inTable && strings.HasPrefix(line, "---"):
		case inTable:
			// A table ends at the first line that is not a row: a
			// blank line or the "prune:" summary under a detail table.
			r, ok := parseInjRow(line)
			if !ok {
				inTable = false
				break
			}
			r.Summary = summary
			rows = append(rows, r)
		}
		if m := detailRE.FindStringSubmatch(line); m != nil {
			campaign = m[1]
		}
		if m := densityRE.FindStringSubmatch(line); m != nil {
			campaign = m[1]
		}
		if m := rootCauseRE.FindStringSubmatch(line); m != nil {
			c, _ := strconv.Atoi(m[1])
			a, _ := strconv.Atoi(m[2])
			u, _ := strconv.Atoi(m[3])
			rcs = append(rcs, rootCauseLine{Campaign: campaign, Corrupted: c, Attributed: a, Unattributed: u})
		}
		prev = line
	}
	return rows, rcs, sc.Err()
}

// isInjHeader recognises an injection table's header row (column
// widths vary with the counts, so it matches fields).
func isInjHeader(line string) bool {
	return strings.HasPrefix(strings.Join(strings.Fields(line), " "), "target bits trials sdc due masked pruned ")
}

// parseInjRow parses "label bits trials sdc due masked pruned ...".
func parseInjRow(line string) (injRow, bool) {
	f := strings.Fields(line)
	if len(f) < 7 {
		return injRow{}, false
	}
	var n [6]int
	for i := range n {
		v, err := strconv.Atoi(f[1+i])
		if err != nil {
			return injRow{}, false
		}
		n[i] = v
	}
	return injRow{Label: f[0], Trials: n[1], SDC: n[2], DUE: n[3], Masked: n[4], Pruned: n[5]}, true
}

// check is one exact output property, evaluated once per iteration.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func pass(name string) check { return check{Name: name, OK: true} }

func fail(name, format string, args ...interface{}) check {
	return check{Name: name, Detail: fmt.Sprintf(format, args...)}
}

// reportChecks applies the report's exact contracts: every injection
// row reconciles (sdc+due+masked+pruned == trials), every root-cause
// line splits its corrupted trials into attributed and unattributed,
// and a campaign's root-cause corrupted count equals the SDC+DUE of the
// same campaign's summary row. wantRows and wantRC are the minimum
// numbers of rows and cross-checked root-cause lines the report must
// carry, so a report that lost its tables cannot pass vacuously.
func reportChecks(report string, wantRows, wantRC int) []check {
	rows, rcs, err := parseReport(report)
	if err != nil {
		return []check{fail("report.parse", "%v", err)}
	}
	var out []check
	corrupted := map[string]int{}
	for _, r := range rows {
		if got := r.SDC + r.DUE + r.Masked + r.Pruned; got != r.Trials {
			out = append(out, fail("inject.row_sum", "%s: sdc+due+masked+pruned = %d, trials = %d", r.Label, got, r.Trials))
		}
		if r.Summary {
			corrupted[r.Label] = r.SDC + r.DUE
		}
	}
	if len(rows) < wantRows {
		out = append(out, fail("inject.rows", "%d injection rows, want at least %d", len(rows), wantRows))
	}
	crossed := 0
	for _, rc := range rcs {
		if rc.Attributed+rc.Unattributed != rc.Corrupted {
			out = append(out, fail("rootcause.split", "%s: %d attributed + %d unattributed != %d corrupted",
				rc.Campaign, rc.Attributed, rc.Unattributed, rc.Corrupted))
		}
		if want, ok := corrupted[rc.Campaign]; ok {
			crossed++
			if rc.Corrupted != want {
				out = append(out, fail("rootcause.corrupted", "%s: %d corrupted, campaign SDC+DUE = %d",
					rc.Campaign, rc.Corrupted, want))
			}
		}
	}
	if len(rcs) == 0 || crossed < wantRC {
		out = append(out, fail("rootcause.lines", "%d root-cause lines, %d cross-checked, want at least %d",
			len(rcs), crossed, wantRC))
	}
	if len(out) == 0 {
		out = append(out, pass("report.contracts"))
	}
	return out
}

// reportTrials counts a report's Monte Carlo trials from its summary
// trial columns; a report without a summary table (the root-cause view
// alone) counts campaigns × the "N trials per campaign" budget of its
// headings.
func reportTrials(report string) int {
	rows, rcs, err := parseReport(report)
	if err != nil {
		return 0
	}
	n := 0
	for _, r := range rows {
		if r.Summary {
			n += r.Trials
		}
	}
	if n > 0 {
		return n
	}
	if m := perCampaignRE.FindStringSubmatch(report); m != nil {
		per, _ := strconv.Atoi(m[1])
		return per * len(rcs)
	}
	return 0
}

// evaluationsRE matches the GA evaluation counts of the fig5 and
// stressmark reports.
var evaluationsRE = regexp.MustCompile(`\(\d+ evaluations,`)

// canonical returns the report with the GA evaluation counts blanked:
// core.Search counts a candidate once per concurrent memo miss, so two
// identical candidates evaluated at the same time in one generation both
// count and the number varies between runs of the same inputs (seen at
// seed 24: 87 vs 88 with an otherwise identical report). Every other
// byte must repeat exactly.
func canonical(report string) string {
	return evaluationsRE.ReplaceAllString(report, "(N evaluations,")
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// sameText checks two renderings for byte identity (of their canonical
// forms).
func sameText(name, a, b string) check {
	a, b = canonical(a), canonical(b)
	if a == b {
		return pass(name)
	}
	return fail(name, "digest %s != %s (%d vs %d bytes)", digest(a), digest(b), len(a), len(b))
}
