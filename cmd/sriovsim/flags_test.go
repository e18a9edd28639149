package main

import (
	"strings"
	"testing"

	"repro/internal/runner"

	sriov "repro"
)

// TestFlagValueErrorsListChoices pins the CLI contract that a bad value for
// an enumerated flag (-backend, -fastpath, -fig) produces an error naming
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
			flag: "-fig",
			resolve: func(v string) error {
				_, err := runner.RunIDs([]string{v}, runner.Options{})
				return err
			},
			value:   "fig99",
			choices: experimentIDs(),
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

// experimentIDs lists every registered experiment id, the -fig choices.
func experimentIDs() []string {
	var ids []string
	for _, e := range sriov.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}
