package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"lrseluge/internal/image"
)

// wireGolden pins every protocol's transmission trace (Env.TraceHash) and
// Result on three scenarios: a lossy one-hop neighborhood, the bursty 4x4
// multihop grid and a churn fault run. The values were recorded before
// Seluge became core's rate-1 configuration, so any refactor of a protocol
// path must leave every packet byte, its timing and every metric unchanged.
var wireGolden = []struct {
	scenario string
	proto    Protocol
	trace    string // Env.TraceHash of the whole run
	result   string // sha256 of the Result's %+v rendering
}{
	{"onehop", Deluge, "dc7b55829390c4d0f28bb64620a5aeed9401b49793a9b0594a7e88728fd0df50", "0b4cce9814c94c045ff2fc357cfd3e04d9e7bcf773b364ea2727e248f8c7177f"},
	{"onehop", Seluge, "e9f90de51e917aa7362de6d3f3a1a495683791ae9cfa29bf9eace5cd01da67ec", "c7f6146c3824bda4967221a5deff1e114dc3a7342d89f3ded703a72fd083d35f"},
	{"onehop", LRSeluge, "9c5bc651db7aae0166df9dbd11454515915d19a3311338e67af827e7585a68d3", "f59d299c2040b0c26f6aa424fa6db23a0097b13daa68c6edbba2d7e00f91a9e2"},
	{"onehop", RatelessDeluge, "6425725fcc50e096540c5d6ad99620cef474dfe4db86d282879cc7d5f4e29f5c", "8c94126b3ccf84d24a6aa613efaef68862acdd1dbd8231160e117b58d916df16"},
	{"multihop", Deluge, "bcbef48cef27e81495dc28ec761772405cb60d647571c63000db16399d299d0b", "539b07097cb5fc9c77132db67c1656bc2194243ada2f036e92dec36f2a4136e9"},
	{"multihop", Seluge, "66badbf1d4c77e7fa5e9ee3c76749417f047c7f8097e2db44d5b69f6ee7f38e7", "02ce91f717e3fbfa9042ac2da18bb06e8af162344bb7a6850b1f0b28dde9fe1f"},
	{"multihop", LRSeluge, "b8ad1bac866ab743e5ef25e28c2ec96b143304c41dce435c2780d6ab7738d457", "d17f0851ab33aca464b62fa79f66d863461fd06cdc7d2b71284cf8723fa7f9f5"},
	{"multihop", RatelessDeluge, "3b25d5885743bb656392ef7caeff9b89d8b1423328a5f04b7aa03bdf29d5d800", "f97f336ba014a75387b62cedd36f5855aeba47931b951cd4708aaf896f3bfafd"},
	{"churn", Deluge, "60f765a0a40f2f126ae88cf3a50d95634612dd96a17088c372c6bc0cad0951d8", "773001b4d2a92e046c8bd57a22d00889b9e8b4a25c66ca8e677cf55e3800fee1"},
	{"churn", Seluge, "93976f82f773e2b35244089ab814dac1d023666adecf6ad95ffeeb03a4f79e09", "d10a1d0d8f2f40bae0042e19042f6c42d8d37306db9ad69cbcb0211412341209"},
	{"churn", LRSeluge, "2cbed7cf41c17080001139220cca0f6ebd3066e57a4cc38581f2c503a5d0a9ff", "297e62a35a2927b1484661e06fda5503f1f98f240b62ee7b3095cb485a1cc472"},
	{"churn", RatelessDeluge, "f633cf5001ce816fe11a0f92186808aadc3016cf2e2751edb2d8282a4e2d29a5", "827a0000531ef120a797b0e1b1d44cad7b0a8ab5882d21b6f95f5892295d8d33"},
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
// The values were recorded before per-transmission verification memos went
// into the receive path: forged data, flooded signatures and replayed
// requests must be judged exactly as when every receiver verified from
// scratch.
var attackGolden = []struct {
	name   string
	kind   attack
	trace  string
	result string // sha256 of the attackRow's %+v rendering
}{
	{"injection", attackInjection, "0325cc62f0878e180326ce35064604789ced9718286cd02927573d73a2467b44", "fa179bef7a6b8dcb3a325b4ff9c37d57ab3e24e39f942c3b86033c40e6389636"},
	{"sig-flood", attackSigFlood, "9882d1b8cc98ec29bd662c3805d0ad97e5318f8867f23cb04df58819c91599b0", "1138277aead0715c0d63329f689694689a5556d301d820f91cea9fb387c5f09c"},
	{"sig-flood-solved", attackSigFloodSolved, "dfb15ae94f1cc7314ff2f82e500c93b892367a2108c75549c18a020a087d7a58", "0537f30b28f6727ecb1d12f6023cde9300a6c235de0eeb42123c73dbba5bae5f"},
	{"dor", attackDoR, "0573118c394a08cc631fc925ad390282f75a0a40a0dd3b00ab9ccc11b39469fb", "e1fd22774f1d647a66b27d70abc1f763f2e25ff4528a08a10edbe6e04b8b21f5"},
	{"dor-limited", attackDoRLimited, "bf76f643b3c841c5b06ed87348ee6c478cc1656dcf1fbbeef64090468ead5a15", "29aeac3fc660a34709fd75a931338a3b966c68b1d7daee9bc5d5f0315c0be9aa"},
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
			e, sent, err := attackEnv(g.kind, image.Params{PacketPayload: 72, K: 8, N: 12}, 2048, 5, 0.1, 21)
			if err != nil {
				t.Fatal(err)
			}
			hash := e.TraceHash()
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
