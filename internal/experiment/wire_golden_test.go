package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"lrseluge/internal/image"
)

// wireGolden pins every protocol's transmission trace (Collector.HashTx) and
// Result on three scenarios: a lossy one-hop neighborhood, the bursty 4x4
// multihop grid and a churn fault run. The values were last re-recorded
// when every random stream moved to SplitMix64 (a change of stream, not of
// protocol), so any refactor of a protocol path must leave every packet
// byte, its timing and every metric unchanged.
var wireGolden = []struct {
	scenario string
	proto    Protocol
	trace    string // Collector.HashTx of the whole run
	result   string // sha256 of the Result's %+v rendering
}{
	{"onehop", Deluge, "7c5e92188bd0bbe341e0d3c108668ecf1b5eec86b4ae03c89f82ab0649c0b705", "1f302295859390213f1e44c7081a9e574286c9a9b975888f3fb1d4f502ad4c79"},
	{"onehop", Seluge, "e732bf7abcaf01a55384afbf191b551f373be4a8782e6eb1c5bb3932ca2684e5", "4c96d654d30e9cc39e732671fdb464d2a716373386f988045540adeea2de0674"},
	{"onehop", LRSeluge, "2c9970ca1d1a6d7ade2c4900371b30f24756ed896c83b85385c03a7e10c16467", "3be6d8638f0b602f471027b3987a9c1b05727395d373813651760d6f61f17cf5"},
	{"onehop", RatelessDeluge, "358842a20ffb16be2416eed5036d5f2fa9fce3132de24922b2e499c7d04f567e", "42c1377e867867510e154a5fd5623b5606c5a3ad2213fdda299b25c4ed21988f"},
	{"multihop", Deluge, "839d7b97ff3c5a46f1162795564d12f1c499ed5bcb669597ccc0eb59eafa496b", "4f4eabe7d6932941e6f9fadeeed20b1130c2b64f5cefed889f93468d1b14e90f"},
	{"multihop", Seluge, "f43c4b4f4f7c58688885e5a404d1d939a43963a57832e0764580632c98d71f19", "990431626c7aa51b00497f839e6ee03d66052e3b22bbc70e25cfc39abdc99e0f"},
	{"multihop", LRSeluge, "0e3b11a022607ef86e75ff54f262b1cb7ce301e1ce9e46ec2d4bd262be52deb6", "d7fb7ac1f373eabcd0a235d02344a44b57afdebcfc734f893ef57c184d4fe21d"},
	{"multihop", RatelessDeluge, "b1c6efdd705e2d456c996243e977575dc15b174f8608f9c369c17300967509cf", "e29f6c639ffb33057b0ab9c1c0b7ad6642b9d715f8a0aa579c81c057d550959e"},
	{"churn", Deluge, "675eb737ae128ef208e331d27e744e0f903e46ee0a203cd61c3705d48eca07cb", "de071079bc18978ef06157af03c77e4323836eef2193f8de3e44016901059e9c"},
	{"churn", Seluge, "225b6938292c51411e4c34b89f228a282710b3393c6fda89b982d2f3474686ce", "a91d2fda062044f85fcef5b7353da78c9383e04cf758e33b00a352ecf4112dbf"},
	{"churn", LRSeluge, "e6fd16de1faf0a6e6b1c745d33d22bae7000a67f2732531430415e19ab3c4a14", "0b40581b46f8d3798dc981ac6a5101292d2214f22ba113ffa08714bda1de47b4"},
	{"churn", RatelessDeluge, "843fa87fd344be2d8322f6e1b8c4dbad16a2ac01e1237dcad482046a9b9b0040", "4ca79b4a26af50bd2adff416efe9883e596081d21b53f9afb56fe1ca658b9351"},
}

// wireScenarios are the scenarios of wireGolden, by name.
var wireScenarios = map[string]func(Protocol) Scenario{
	"onehop": func(p Protocol) Scenario {
		return Scenario{Protocol: p, Receivers: 20, LossP: 0.2, Seed: 3}
	},
	"multihop": func(p Protocol) Scenario {
		s := multihopScenario(42)
		s.Protocol = p
		return s
	},
	"churn": func(p Protocol) Scenario {
		s := churnScenario(42)
		s.Protocol = p
		return s
	},
}

func resultDigest(res Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
	return hex.EncodeToString(sum[:])
}

// attackGolden pins LR-Seluge's trace hash and result under each of
// AttackResilience's adversaries, on TestAttackResilience's small network.
// The values were first recorded before per-transmission verification memos
// went into the receive path, and re-recorded only for the move of every
// stream to SplitMix64: forged data, flooded signatures and replayed
// requests must be judged exactly as when every receiver verified from
// scratch.
var attackGolden = []struct {
	name   string
	kind   attack
	trace  string
	result string // sha256 of the attackRow's %+v rendering
}{
	{"injection", attackInjection, "17a7b4b3655ed82ef295099eff8c3d5ca33546d35d37c719e9e7b7b85602f339", "1da938d57159bb7c32f1fcf5d849a93cf79ee90314510bbb5bab70cd80e3ad4e"},
	{"sig-flood", attackSigFlood, "f2ba0f907dc19b61cb66926a65f598b05597a968c9e87cbd663dbd30125f2e2e", "3ed4d0758254e7cb45ba320c9827c5cc99305533dc4a978a8d516a99e2596eb5"},
	{"sig-flood-solved", attackSigFloodSolved, "fafe46d74f122843020755ab9ee44c6d0fae033f8ab03000a95360ab04c50599", "fee4dbfacd9ce71558f8f9210f2e0717f4b5d1daea7143e32837b1de23b1fc89"},
	{"dor", attackDoR, "09c55c4728a94f778b3f6dc07cdbead70500efd575be0feab69fb59fbda44870", "819dcb75e1b22d1a67fafb8c0987926696fa8f88eb8599c8e42020106150ca42"},
	{"dor-limited", attackDoRLimited, "b44d15c77b767f91cd40160634bda1fe41aeedb20691edc4f4b06e0fdfa855b0", "c08a4e8b0d9640a1b7797412fd9ddd9f3b0800d4868448e0923ba6ce76a2762f"},
}

// attackScenario is TestAttackResilience's small network, the base of every
// attack run the tests pin.
func attackScenario() Scenario {
	return Scenario{ImageSize: 2048, Params: image.Params{PacketPayload: 72, K: 8, N: 12},
		Receivers: 5, LossP: 0.1, Seed: 21}
}

// attackRow is what an attackGolden row's result digest covers: the run's
// Result, the attacker's packet count and, for denial of receipt, the
// victim's transmissions in the window after dissemination.
type attackRow struct {
	Res      Result
	Sent     int64
	VictimTx int64
}

func TestWireGolden(t *testing.T) {
	for _, g := range attackGolden {
		t.Run("attack/"+g.name, func(t *testing.T) {
			e, sent, err := attackEnv(g.kind, attackScenario())
			if err != nil {
				t.Fatal(err)
			}
			hash := e.col.HashTx()
			row := attackRow{Res: e.run(), Sent: sent()}
			if g.kind == attackDoR || g.kind == attackDoRLimited {
				if row.VictimTx, err = dorVictimTx(e, sent); err != nil {
					t.Fatal(err)
				}
			}
			if got := hash(); got != g.trace {
				t.Errorf("trace hash %s, want %s", got, g.trace)
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", row)))
			if got := hex.EncodeToString(sum[:]); got != g.result {
				t.Errorf("result digest %s, want %s\nrow: %+v", got, g.result, row)
			}
		})
	}
	for _, g := range wireGolden {
		t.Run(g.scenario+"/"+g.proto.String(), func(t *testing.T) {
			res, trace := traceRun(t, wireScenarios[g.scenario](g.proto))
			if trace != g.trace {
				t.Errorf("trace hash %s, want %s", trace, g.trace)
			}
			if got := resultDigest(res); got != g.result {
				t.Errorf("result digest %s, want %s\nresult: %+v", got, g.result, res)
			}
		})
	}
}
