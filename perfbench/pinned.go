package main

// pinned holds the output digest of each workload's default seed: any
// change to a modelled number the workload prints changes it. Regenerate
// only for a deliberate, documented change of modelled output.
var pinned = map[string]string{
	"sweep-grid":        "923fb39ceb2664db",
	"tune-varlen":       "137efa4724f1b252",
	"fleet-stream":      "c8ea93c9b3c4b874",
	"paper-experiments": "fe73f63c962b4c57",
}

// pinnedTiny holds the same for the self-test's tiny inputs.
var pinnedTiny = map[string]string{
	"sweep-grid":        "1fe5ef089ad957fe",
	"tune-varlen":       "93df859ff756a248",
	"fleet-stream":      "27c9bd57a6adc7f3",
	"paper-experiments": "fe73f63c962b4c57",
}

func pinnedDigest(name string, sz size) (string, bool) {
	m := pinned
	if sz == sizeTiny {
		m = pinnedTiny
	}
	d, ok := m[name]
	return d, ok
}
