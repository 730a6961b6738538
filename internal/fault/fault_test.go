package fault

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lrseluge/internal/sim"
)

func TestValidateAcceptsWellFormedPlan(t *testing.T) {
	p := &Plan{Events: []Event{
		{AtSec: 1, Kind: NodeCrash, Node: 2},
		{AtSec: 2, Kind: LinkDown, From: 0, To: 1, Bidir: true},
		{AtSec: 3, Kind: NodeReboot, Node: 2},
		{AtSec: 4, Kind: LinkUp, From: 0, To: 1, Bidir: true},
		{AtSec: 5, Kind: Partition, Groups: [][]int{{0, 1}, {2}}},
		{AtSec: 6, Kind: Heal},
	}}
	if err := p.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		nodes  int
		want   string
	}{
		{"negative time", []Event{{AtSec: -1, Kind: Heal}}, 0, "negative time"},
		{"nan time", []Event{{AtSec: nan(), Kind: Heal}}, 0, "non-finite"},
		{"decreasing times", []Event{
			{AtSec: 2, Kind: NodeCrash, Node: 1},
			{AtSec: 1, Kind: NodeReboot, Node: 1},
		}, 0, "precedes"},
		{"double crash", []Event{
			{AtSec: 1, Kind: NodeCrash, Node: 1},
			{AtSec: 2, Kind: NodeCrash, Node: 1},
		}, 0, "already down"},
		{"reboot without crash", []Event{{AtSec: 1, Kind: NodeReboot, Node: 1}}, 0, "not down"},
		{"node out of bounds", []Event{{AtSec: 1, Kind: NodeCrash, Node: 9}}, 4, "outside topology"},
		{"negative node", []Event{{AtSec: 1, Kind: NodeCrash, Node: -1}}, 0, "negative"},
		{"overlapping link windows", []Event{
			{AtSec: 1, Kind: LinkDown, From: 0, To: 1},
			{AtSec: 2, Kind: LinkDown, From: 0, To: 1},
		}, 0, "open outage window"},
		{"link up without down", []Event{{AtSec: 1, Kind: LinkUp, From: 0, To: 1}}, 0, "without an open outage window"},
		{"self-loop link", []Event{{AtSec: 1, Kind: LinkDown, From: 2, To: 2}}, 0, "self-loop"},
		{"bidir overlap", []Event{
			{AtSec: 1, Kind: LinkDown, From: 0, To: 1},
			{AtSec: 2, Kind: LinkDown, From: 1, To: 0, Bidir: true},
		}, 0, "open outage window"},
		{"nested partition", []Event{
			{AtSec: 1, Kind: Partition, Groups: [][]int{{0}, {1}}},
			{AtSec: 2, Kind: Partition, Groups: [][]int{{0}, {1}}},
		}, 0, "already partitioned"},
		{"empty partition group", []Event{{AtSec: 1, Kind: Partition, Groups: [][]int{{}}}}, 0, "empty"},
		{"partition with no groups", []Event{{AtSec: 1, Kind: Partition}}, 0, "no groups"},
		{"node in two groups", []Event{{AtSec: 1, Kind: Partition, Groups: [][]int{{0, 1}, {1}}}}, 0, "two partition groups"},
		{"heal without partition", []Event{{AtSec: 1, Kind: Heal}}, 0, "without a partition"},
		{"adversary ramp", []Event{{AtSec: 1, Kind: "adversary-ramp"}}, 0, "unknown kind"},
		{"unknown kind", []Event{{AtSec: 1, Kind: "meteor-strike"}}, 0, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Plan{Events: tc.events}
			err := p.Validate(tc.nodes)
			if err == nil {
				t.Fatalf("expected rejection containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestParsePlan(t *testing.T) {
	data := []byte(`{
		"name": "demo",
		"events": [
			{"at_sec": 1.5, "kind": "node-crash", "node": 1},
			{"at_sec": 3,   "kind": "node-reboot", "node": 1}
		]
	}`)
	p, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "demo" || len(p.Events) != 2 {
		t.Fatalf("unexpected plan: %+v", p)
	}
	if got, want := p.Events[0].At(), sim.Time(1500)*sim.Millisecond; got != want {
		t.Fatalf("At() = %v, want %v", got, want)
	}
}

func TestParsePlanRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	if _, err := ParsePlan([]byte(`{"events": [], "bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParsePlan([]byte(`{"events": []} {"events": []}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
	if _, err := ParsePlan([]byte(`{"events": [{"at_sec": 1, "kind": "node-reboot", "node": 1}]}`)); err == nil {
		t.Fatal("semantically invalid plan accepted")
	}
}

func TestLoadPlan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(path, []byte(`{"events": [{"at_sec": 2, "kind": "heal"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(path); err == nil {
		t.Fatal("invalid plan file accepted")
	}
	if err := os.WriteFile(path, []byte(`{"events": [{"at_sec": 0.25, "kind": "node-crash", "node": 3}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 1 || p.Events[0].Node != 3 {
		t.Fatalf("unexpected plan: %+v", p)
	}
	if _, err := LoadPlan(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
