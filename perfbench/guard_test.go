package main

import (
	"os"
	"strings"
	"testing"
)

// TestNoMechanismsSlatedForDeletion keeps the benchmark off every option
// and counter the roadmap plans to delete, so the changes that delete them
// never have to edit the benchmark. The names are assembled from parts so
// this file does not match itself.
func TestNoMechanismsSlatedForDeletion(t *testing.T) {
	banned := []string{
		"With" + "PoolScheduler",
		"Set" + "Backoff",
		"Backoff" + "Config",
		"With" + "CopyEncode",
		"With" + "AdaptiveBatching",
		"With" + "ServiceRateControl",
		"Spin" + "Sleeps",
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, name := range banned {
			if strings.Contains(string(b), name) {
				t.Errorf("%s references %s, which the roadmap slates for deletion", e.Name(), name)
			}
		}
	}
	if checked < 5 {
		t.Fatalf("checked only %d files; is the test running in the benchmark directory?", checked)
	}
}
