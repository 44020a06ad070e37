package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// resultPins is the SHA-256 of json.Marshal(sim.Result) for every registered
// scenario except big-mesh-64 (too slow for the unit suite). It extends
// TestNoFaultTrajectoryPins to the whole registry — the deadlock-heavy
// sharded and chaos scenarios included — so a change to routing, the engine
// or a control plane that moves any result byte fails here. A pin may only
// change together with a deliberate, documented change of behaviour.
var resultPins = map[string]string{
	"big-mesh-16":                "010b2c41c583c8edff521d68066acf3836a85ff84c1ce12fe569763c207feedf",
	"chaos-blackout":             "2d6c05e4d708fe34fc9857d202e7834359df8fe5dff306d913d2bfc726672911",
	"chaos-crashes":              "cfc8161179b9ddcbe84b90fc8fea28b339a10ebb076ad256c507fa164637f16c",
	"chaos-links":                "bdcf872caee92fb103baee2064d821183423bc2eef0d8e5f18bb31b6ff65fc24",
	"chaos-region-failover":      "2831937d99ac1b77732921a0e296e41f0e5e9f56fc2ebe0ee1021a3b71ac2604",
	"chaos-storm":                "ebe88cda565a0ef91f15cddbcc6b8f8c000732d9ab314018839d839a5d40c32f",
	"chaos-wear":                 "aa75c98aa88f4b5dbea5feec8af8d4181ce47322bb975634f16dd3d4b301b142",
	"degraded-fabric":            "1fae86b2ce03b6b219f2bfd1edf97091afe1c3775fad35c3b6d455a59f82f840",
	"degraded-fabric-mc":         "9f144a1f67e5c4a8649147a42d40a651514cbf4d35c578a4219f93ddf969bd5c",
	"degraded-fabric-sdr":        "622a73e9b5c7435f6090cd15e3644ebcf2e141abc656ebe6bdbe0c0621d3f62b",
	"degraded-random-mc":         "09f676ef01a50b3ecdc83a5599253da9bad3d2e5a5557f085c10bf263b1b7fec",
	"dual-controller-finite":     "623ff05a18745fc7194a77f5ec51f40ab6d9a2c274e9881732fbc7310f1f766e",
	"ear-blind":                  "e26bc2c71b3327063ade28a8fb49a94998b7ecf34dfc7f29f1223ebc9460120d",
	"fig8-controllers":           "b3b4711bf0960e703932268cf699969fb52766838db4566b7b2c07674d54576a",
	"optimized-4x4":              "d9abc746852dde61c5a7bf4fcab651c365bad708f59aa7d5c03f0948daef9ac3",
	"optimized-4x4-sdr":          "d3c5c6e5e0299fcade02b844ce93d04ab922f77f415c29dd6311e15ca4469974",
	"paper-default":              "28b0c6f06e024f0980002aadec08fdf4fb60278810132a741f3e213a51d0f769",
	"paper-large":                "13273e63ea543b10585c9552e637074af486a6aed1db044fad24b33ed00a96fc",
	"paper-sdr":                  "93f212643a73eec88f71f17a08ede9b964327c17ce085f9cc9da67743d4b887a",
	"proportional-mapping":       "d92de7429ddb5b9466efba5876a130b016d6490415b1cfbc8faab54063544453",
	"random-mapping":             "0db081210cb74335adf4756b6d2e9158994322c9f218b93bf526b7d40bfe6639",
	"random-mapping-sweep":       "e1e25395f241ba3f6e61ac7cc7963e0346285b49a69e83d844cd423b84241062",
	"random-mapping-sweep-sdr":   "8f7972ec16943d048891311b3fa8f33d5f3f80352dd7505840446977f8513f28",
	"sharded-8x8":                "6f1598f2726f6565e029be7af22de2861019a6cd8f0981b315ae687f38fa7a92",
	"sharded-8x8-stale":          "472eb5ecff85df7445bcf778372de9b1c58a42162ba0a7700e52f71a5577eb4c",
	"sharded-finite-controllers": "e52b3c430916cd8374dc5e7fdb32b407aace483b2ca1a5b6b61bbb3b39b5fe99",
	"smartshirt-verified":        "7e46625937bb33c2b54db18a09574ed1b1bc47f8f612ba35df38d024216a6937",
	"stress-burst":               "1c513db91c2137b070837e7cab0bb0f721bd173893b27db8ce676b1efca827a7",
	"stress-burst-sdr":           "d50eaec1a6eca35a21b23b0893f44ead72810cb8718e9c6c050e3ac2bc002bb5",
	"table2-ideal":               "a4205ed2a0cef069e9b822070bed0cd3eae47b6dc6b0c4e15eee05488af39eb5",
}

// TestRegistryResultPins simulates every pinned scenario and compares the
// hash of its marshalled result. Every registered scenario but big-mesh-64
// must be pinned, so a newly registered one fails until it gets a pin.
func TestRegistryResultPins(t *testing.T) {
	for _, name := range Names() {
		if _, ok := resultPins[name]; !ok && name != "big-mesh-64" {
			t.Errorf("%s is registered but has no result pin", name)
		}
	}
	for name, want := range resultPins {
		t.Run(name, func(t *testing.T) {
			spec, ok := Lookup(name)
			if !ok {
				t.Fatalf("%s is pinned but not registered", name)
			}
			res, err := spec.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s result moved: sha256 %s, want %s", name, got, want)
			}
		})
	}
}
