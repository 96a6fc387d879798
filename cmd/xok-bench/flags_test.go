package main

import (
	"flag"
	"strings"
	"testing"
)

// TestCheckFlagsRejectsNegatives: out-of-range numeric flags are
// refused before any experiment runs (main then exits 2), instead of
// panicking mid-run or running under a mislabelled value.
func TestCheckFlagsRejectsNegatives(t *testing.T) {
	for _, tc := range []struct {
		flag, val, want string
	}{
		{"servers", "-1", "server count"},
		{"conns", "-5", "connection count"},
		{"rate", "-100", "arrival rate"},
		{"seeds", "-3", "program count"},
		{"steps", "-1", "program length"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			f := flag.Lookup(tc.flag)
			defer f.Value.Set(f.DefValue)
			if err := f.Value.Set(tc.val); err != nil {
				t.Fatal(err)
			}
			if err := checkFlags(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("-%s %s: checkFlags() = %v, want an error naming the %s", tc.flag, tc.val, err, tc.want)
			}
		})
	}
	if err := checkFlags(); err != nil {
		t.Errorf("default flags rejected: %v", err)
	}
}
