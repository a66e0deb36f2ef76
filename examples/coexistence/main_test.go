package main

import (
	"strings"
	"testing"

	"repro/internal/golden"
)

// TestOutputGolden pins everything the example prints.
func TestOutputGolden(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/stdout.golden", out.String())
}
