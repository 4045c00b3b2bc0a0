package workload

import "testing"

func TestValidate(t *testing.T) {
	if err := (Workload{Total: 1000}).Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	if err := (Workload{Total: 0}).Validate(); err == nil {
		t.Fatal("zero workload accepted")
	}
	if err := (Workload{Total: -5}).Validate(); err == nil {
		t.Fatal("negative workload accepted")
	}
}

func TestProfiles(t *testing.T) {
	for _, w := range []Workload{SequenceMatching(5000), ImageFeature(1024), RayTracing(256)} {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.UnitOps <= 0 || w.DataPerUnit <= 0 || w.Name == "" {
			t.Errorf("%s: incomplete profile %+v", w.Name, w)
		}
	}
	if SequenceMatching(5000).Total != 5000 {
		t.Fatal("sequence count not propagated")
	}
}
