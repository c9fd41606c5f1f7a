package main

import "testing"

// TestRun runs the example end to end. It fails on an error, and a
// panic, such as a read of a history no reader declared before the run,
// fails it too.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
