package experiment

import (
	"fmt"

	"lrseluge/internal/image"
	"lrseluge/internal/sim"
)

// UpgradeResult reports a secure version-upgrade experiment: a network in
// steady state on version 1 is reprogrammed to version 2.
type UpgradeResult struct {
	Nodes int

	// V1Latency is the initial dissemination latency of version 1.
	V1Latency sim.Time
	// UpgradeLatency is the time from injecting version 2 at the base
	// station until every node runs it.
	UpgradeLatency sim.Time
	// UpgradeBytes is the communication spent on the upgrade phase.
	UpgradeBytes int64
	// Upgraded counts nodes that completed version 2.
	Upgraded int
	// ImagesOK is true when every node's version-2 image matches.
	ImagesOK bool
	// SigVerifications across both phases (each node verifies one
	// signature per version).
	SigVerifications int64
}

// VersionUpgrade disseminates a version-1 image with LR-Seluge, then
// injects a version-2 image at the base station and measures the secure
// upgrade: stale nodes only discard their state after the new version's
// signature (bound to the puzzle key chain) verifies.
func VersionUpgrade(params image.Params, imageSize, receivers int, lossP float64, seed int64) (UpgradeResult, error) {
	e, err := Build(Scenario{
		Protocol:  LRSeluge,
		Image:     image.Random(imageSize, seed^0x11),
		Params:    params,
		Receivers: receivers,
		LossP:     lossP,
		Seed:      seed,
	})
	if err != nil {
		return UpgradeResult{}, err
	}
	return e.upgradeRun(image.Random(imageSize, seed^0x22))
}

// upgradeRun drives a fresh LR-Seluge env until every node holds its first
// version, upgrades it to img and drives it again.
func (e *Env) upgradeRun(img []byte) (UpgradeResult, error) {
	e.Drive(0, nil)
	if !e.allDone() {
		return UpgradeResult{}, fmt.Errorf("experiment: version 1 incomplete (%d/%d)", e.col.Completions(), len(e.nodes))
	}
	out := UpgradeResult{Nodes: len(e.nodes), V1Latency: e.col.Latency()}

	start, bytesBefore := e.eng.Now(), e.col.TotalBytes()
	if err := e.Upgrade(img); err != nil {
		return UpgradeResult{}, err
	}
	e.Drive(0, nil)
	out.Upgraded = e.col.Completions()
	out.UpgradeLatency = e.eng.Now() - start
	out.UpgradeBytes = e.col.TotalBytes() - bytesBefore
	out.SigVerifications = e.col.SigVerifications()
	out.ImagesOK = e.ImagesOK()
	return out, nil
}
