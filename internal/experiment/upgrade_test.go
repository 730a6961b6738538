package experiment

import (
	"testing"

	"lrseluge/internal/image"
	"lrseluge/internal/sim"
)

func TestVersionUpgrade(t *testing.T) {
	params := image.Params{PacketPayload: 72, K: 8, N: 12}
	res, err := VersionUpgrade(params, 2048, 5, 0.1, 23)
	if err != nil {
		t.Fatal(err)
	}
	if res.Upgraded != res.Nodes {
		t.Fatalf("only %d/%d nodes upgraded", res.Upgraded, res.Nodes)
	}
	if !res.ImagesOK {
		t.Fatal("version-2 images not intact everywhere")
	}
	if res.UpgradeLatency <= 0 || res.UpgradeLatency > 30*60*sim.Second {
		t.Fatalf("implausible upgrade latency %v", res.UpgradeLatency)
	}
	// Every node verifies one signature per version (plus possibly a few
	// re-verifications from duplicate announcements).
	if res.SigVerifications < int64(res.Nodes) {
		t.Fatalf("too few signature verifications: %d", res.SigVerifications)
	}
}

func TestVersionUpgradeLossless(t *testing.T) {
	params := image.Params{PacketPayload: 72, K: 8, N: 12}
	res, err := VersionUpgrade(params, 1024, 3, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Upgraded != res.Nodes || !res.ImagesOK {
		t.Fatalf("lossless upgrade failed: %+v", res)
	}
}

// TestVersionUpgradeDeterministic pins that the upgrade path is as
// reproducible as every other run: the same seed gives the same result
// twice, and the heap and calendar event queues give the same result and
// the same transmission trace.
func TestVersionUpgradeDeterministic(t *testing.T) {
	params := image.Params{PacketPayload: 72, K: 8, N: 12}
	const seed = 23
	want, err := VersionUpgrade(params, 2048, 5, 0.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := VersionUpgrade(params, 2048, 5, 0.1, seed); err != nil || again != want {
		t.Fatalf("same seed diverged: %+v vs %+v (err %v)", again, want, err)
	}
	hashes := map[sim.QueueKind]string{}
	for _, kind := range []sim.QueueKind{sim.HeapQueue, sim.CalendarQueue} {
		e, err := Build(Scenario{
			Protocol:  LRSeluge,
			Image:     image.Random(2048, seed^0x11),
			Params:    params,
			Receivers: 5,
			LossP:     0.1,
			Seed:      seed,
			Queue:     kind,
		})
		if err != nil {
			t.Fatal(err)
		}
		hash := e.col.HashTx()
		got, err := e.upgradeRun(image.Random(2048, seed^0x22))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v queue: %+v, want %+v", kind, got, want)
		}
		hashes[kind] = hash()
	}
	if hashes[sim.HeapQueue] != hashes[sim.CalendarQueue] {
		t.Fatalf("queue kinds disagree on the upgrade trace: %v", hashes)
	}
}

// TestImagesOKTracksUpgrade checks that after Upgrade, ImagesOK reads false
// until every node holds the new version's image, and true from then on.
func TestImagesOKTracksUpgrade(t *testing.T) {
	params := image.Params{PacketPayload: 72, K: 8, N: 12}
	e, err := Build(Scenario{Protocol: LRSeluge, ImageSize: 1024, Params: params, Receivers: 4, LossP: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e.Drive(0, nil)
	if !e.ImagesOK() {
		t.Fatal("version 1 did not reach every node")
	}
	if err := e.Upgrade(image.Random(1024, 99)); err != nil {
		t.Fatal(err)
	}
	if e.ImagesOK() {
		t.Fatal("ImagesOK true right after Upgrade, before any node but the base holds v2")
	}
	slices := 0
	e.Drive(sim.Second, func(sim.Time) {
		slices++
		if all := e.allDone(); e.ImagesOK() != all {
			t.Fatalf("slice %d: ImagesOK = %v with %d/%d nodes on v2", slices, !all, e.col.Completions(), len(e.nodes))
		}
	})
	if slices < 2 || !e.allDone() || !e.ImagesOK() {
		t.Fatalf("upgrade did not finish observably: %d slices, %d/%d nodes, ImagesOK %v", slices, e.col.Completions(), len(e.nodes), e.ImagesOK())
	}
}

// TestUpgradeRejectsOtherProtocols checks that Env.Upgrade refuses every
// protocol but LR-Seluge and leaves the run exactly as Build made it.
func TestUpgradeRejectsOtherProtocols(t *testing.T) {
	params := image.Params{PacketPayload: 72, K: 8, N: 12}
	for _, proto := range []Protocol{Seluge, Deluge, RatelessDeluge} {
		s := Scenario{Protocol: proto, ImageSize: 1024, Params: params, Receivers: 3, LossP: 0.1, Seed: 11}
		want, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		base := e.nodes[0].Handler()
		if err := e.Upgrade(image.Random(1024, 12)); err == nil {
			t.Fatalf("%v: Upgrade succeeded", proto)
		}
		if e.version != 1 || e.nodes[0].Handler() != base {
			t.Fatalf("%v: failed Upgrade changed the run (version %d)", proto, e.version)
		}
		if got := e.run(); got != want {
			t.Fatalf("%v: run after a failed Upgrade = %+v, want %+v", proto, got, want)
		}
	}
}
