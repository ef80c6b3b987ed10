package main

import "testing"

// TestRun runs the example end to end: any step that goes wrong fails it.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
