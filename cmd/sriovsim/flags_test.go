package main

import (
	"strings"
	"testing"

	sriov "repro"
)

// TestFlagValueErrorsListChoices pins the CLI contract that a bad value for
// an enumerated flag (-backend, -fastpath, -chaos) produces an error naming
// every valid choice — a typo should teach, not just reject. Each case runs
// the same resolver main() dispatches to.
func TestFlagValueErrorsListChoices(t *testing.T) {
	cases := []struct {
		flag    string
		resolve func(v string) error
		value   string
		choices []string
	}{
		{
			flag: "-fastpath",
			resolve: func(v string) error {
				_, err := sriov.ParseFastpathMode(v)
				return err
			},
			value:   "turbo",
			choices: []string{"auto", "on", "off"},
		},
		{
			flag: "-chaos",
			resolve: func(v string) error {
				_, err := chaosIDs(v)
				return err
			},
			value:   "fig99",
			choices: []string{"fig24", "fig25", "fig28", "fig29", "all"},
		},
		{
			flag: "-backend",
			resolve: func(v string) error {
				_, err := sriov.NFVExperiments([]string{v})
				return err
			},
			value:   "dpdk",
			choices: sriov.DatapathBackends(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.flag, func(t *testing.T) {
			err := tc.resolve(tc.value)
			if err == nil {
				t.Fatalf("%s %s: want error, got nil", tc.flag, tc.value)
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.value) {
				t.Errorf("%s: error %q does not echo the bad value %q", tc.flag, msg, tc.value)
			}
			for _, c := range tc.choices {
				if !strings.Contains(msg, c) {
					t.Errorf("%s: error %q does not list valid choice %q", tc.flag, msg, c)
				}
			}
		})
	}
}

// TestChaosIDsValid pins the valid selector → id mapping.
func TestChaosIDsValid(t *testing.T) {
	cases := []struct {
		sel  string
		want []string
	}{
		{"fig24", []string{"fig24"}},
		{"24", []string{"fig24"}},
		{"fig25", []string{"fig25"}},
		{"28", []string{"fig28"}},
		{"fig29", []string{"fig29"}},
		{"all", []string{"fig24", "fig25", "fig28", "fig29"}},
	}
	for _, tc := range cases {
		ids, err := chaosIDs(tc.sel)
		if err != nil {
			t.Fatalf("chaosIDs(%q): %v", tc.sel, err)
		}
		if len(ids) != len(tc.want) {
			t.Fatalf("chaosIDs(%q) = %v, want %v", tc.sel, ids, tc.want)
		}
		for i := range ids {
			if ids[i] != tc.want[i] {
				t.Fatalf("chaosIDs(%q) = %v, want %v", tc.sel, ids, tc.want)
			}
		}
	}
}
