package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("")
	if err != nil || len(all) != len(experiments) {
		t.Fatalf(`selectExperiments("") = %d experiments, %v; want all %d`, len(all), err, len(experiments))
	}
	for _, id := range []string{"E7", "e7"} {
		sel, err := selectExperiments(id)
		if err != nil || len(sel) != 1 || sel[0].id != "E7" {
			t.Errorf("selectExperiments(%q) = %v, %v; want E7", id, sel, err)
		}
	}
	// E18 was deleted; an unknown ID must fail and list the valid ones.
	for _, id := range []string{"E18", "E99", "7"} {
		sel, err := selectExperiments(id)
		if err == nil {
			t.Errorf("selectExperiments(%q) = %d experiments, want an error", id, len(sel))
			continue
		}
		for _, e := range experiments {
			if !strings.Contains(err.Error(), e.id) {
				t.Errorf("selectExperiments(%q) error %q does not list %s", id, err, e.id)
			}
		}
	}
}
