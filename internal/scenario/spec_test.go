package scenario

import "testing"

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{},
		{Config: "configA", Rates: "edr", Suite: "mibench", Mode: "reference"},
		{Scenarios: []string{"fig3", "stressmark:baseline:rhc"}, Scale: 8, GAPop: 4},
		{GAPop: MaxGAPop, InjectTrials: MaxInjectTrials},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d rejected: %v", i, err)
		}
	}
	bad := []Spec{
		{Config: "pentium"},
		{Rates: "cosmic"},
		{Suite: "spec2017"},
		{Mode: "guess"},
		{Scale: -1},
		{GAPop: -2},
		{GAPop: MaxGAPop + 1},
		{InjectTrials: -1},
		{InjectTrials: MaxInjectTrials + 1},
		{WorkloadInstr: -5},
		{Parallelism: -1},
		{TimeoutSec: -1},
		{Scenarios: []string{"fig3", " "}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}
