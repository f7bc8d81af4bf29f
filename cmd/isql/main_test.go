package main

import (
	"strings"
	"testing"
)

func TestCheckEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"", true},
		{"reference", true},
		{"translated", true},
		{"wsdexec", true},
		{"legacy", true},
		{"physical", false},
		{"WSDEXEC", false},
	} {
		err := checkEngine(tc.name)
		if (err == nil) != tc.ok {
			t.Errorf("checkEngine(%q) = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "reference | translated | wsdexec | legacy") {
			t.Errorf("checkEngine(%q) error %q does not list the accepted names", tc.name, err)
		}
	}
}
