package main

import (
	"bytes"
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
				_, err := runner.Specs([]string{v})
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

// TestConflictingModesExit2: every ordered pair of mode flags is refused
// with exit 2 and an error naming both, before anything runs.
func TestConflictingModesExit2(t *testing.T) {
	modes := [][]string{
		{"-list"}, {"-soak", "1"}, {"-backend", "all"}, {"-clos", "4"},
		{"-hosts", "2"}, {"-all"}, {"-fig", "7"}, {"-scenario", "scenario.json"},
	}
	for _, a := range modes {
		for _, b := range modes {
			if a[0] == b[0] {
				continue
			}
			args := append(append([]string{}, a...), b...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Errorf("%v: exit %d, want 2", args, code)
			}
			if stdout.Len() != 0 {
				t.Errorf("%v: stdout %q, want empty", args, stdout.String())
			}
			for _, mode := range []string{a[0], b[0]} {
				if !strings.Contains(stderr.String(), mode) {
					t.Errorf("%v: error %q does not name %s", args, stderr.String(), mode)
				}
			}
		}
	}
}
