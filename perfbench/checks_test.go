package main

import (
	"os"
	"strings"
	"testing"
)

// The testdata reports were rendered by avfbench -ref -quiet:
//
//	campaign_report.txt  -run faultinject:baseline:uniform:200,rootcause:baseline:uniform:200
//	rootcause_report.txt -run rootcause

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestParseCampaignReport(t *testing.T) {
	rows, rcs, err := parseReport(readTestdata(t, "campaign_report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var summary, detail int
	for _, r := range rows {
		if r.Summary {
			summary++
		} else {
			detail++
		}
	}
	// Four campaigns in the summary; the stressmark's detail has eleven
	// structures plus "overall".
	if summary != 4 || detail != 12 {
		t.Fatalf("rows: %d summary, %d detail; want 4 and 12", summary, detail)
	}
	first := rows[0]
	want := injRow{Label: "403.gcc", Summary: true, Trials: 375, SDC: 136, DUE: 0, Masked: 200, Pruned: 39}
	if first != want {
		t.Errorf("first row %+v, want %+v", first, want)
	}
	// The faultinject detail carries one root-cause line, the rootcause
	// view one per campaign.
	if len(rcs) != 5 {
		t.Fatalf("%d root-cause lines, want 5", len(rcs))
	}
	if rcs[0].Campaign != rcs[4].Campaign || !strings.HasPrefix(rcs[4].Campaign, "stressmark-") {
		t.Errorf("campaign labels %q and %q", rcs[0].Campaign, rcs[4].Campaign)
	}
	if got := reportTrials(readTestdata(t, "campaign_report.txt")); got != 375+360+382+345 {
		t.Errorf("reportTrials = %d", got)
	}
}

func TestReportChecksPassOnSeedOutput(t *testing.T) {
	for _, tc := range []struct {
		file           string
		wantRows, want int
	}{
		{"campaign_report.txt", 16, 4},
		{"rootcause_report.txt", 0, 0},
	} {
		for _, c := range reportChecks(readTestdata(t, tc.file), tc.wantRows, tc.want) {
			if !c.OK {
				t.Errorf("%s: %s: %s", tc.file, c.Name, c.Detail)
			}
		}
	}
	if got := reportTrials(readTestdata(t, "rootcause_report.txt")); got != 4000 {
		t.Errorf("rootcause reportTrials = %d, want 4 campaigns × 1000", got)
	}
}

func TestReportChecksCatchViolations(t *testing.T) {
	report := readTestdata(t, "campaign_report.txt")
	for name, broken := range map[string]string{
		// 403.gcc's masked count, one too many.
		"inject.row_sum": strings.Replace(report, "375     136  0    200", "375     136  0    201", 1),
		// A root-cause line whose split does not add up.
		"rootcause.split": strings.Replace(report, "root cause: 136 corrupted, 35 attributed, 101 unattributed",
			"root cause: 136 corrupted, 36 attributed, 101 unattributed", 1),
		// Corrupted count disagreeing with the summary row.
		"rootcause.corrupted": strings.Replace(report, "root cause: 136 corrupted, 35 attributed, 101 unattributed",
			"root cause: 137 corrupted, 36 attributed, 101 unattributed", 1),
	} {
		if broken == report {
			t.Fatalf("%s: replacement did not apply", name)
		}
		found := false
		for _, c := range reportChecks(broken, 16, 4) {
			if c.Name == name && !c.OK {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violation not reported", name)
		}
	}
	// A report that lost its tables cannot pass vacuously.
	if cs := reportChecks("no tables here\n", 1, 1); cs[0].OK {
		t.Errorf("empty report passed: %+v", cs)
	}
}
