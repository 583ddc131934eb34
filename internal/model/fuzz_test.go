package model

import (
	"bytes"
	"os"
	"testing"
)

// FuzzModelJSON feeds arbitrary documents to UnmarshalSystem, seeded
// with the repository's JSON system fixtures. Decoding must never
// panic, and a decoded system must survive a MarshalJSON round trip:
// the re-encoded document decodes again and re-encodes to the same
// bytes.
func FuzzModelJSON(f *testing.F) {
	for _, path := range []string{"../sut/multiout.json", "../analytic/cyclic_fixture.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	sys, err := NewBuilder("tiny").
		AddSignal("in", Uint(16), AsSystemInput()).
		AddSignal("flag", Bool()).
		AddSignal("out", Int(8), AsSystemOutput(0.5), WithInitial(-3)).
		AddModule("A", In("in"), Out("flag")).
		AddModule("B", In("flag"), Out("out")).
		Build()
	if err != nil {
		f.Fatal(err)
	}
	data, err := sys.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"name":"x","signals":[{"id":"a","width":0,"kind":"input"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := UnmarshalSystem(data)
		if err != nil {
			return
		}
		first, err := sys.MarshalJSON()
		if err != nil {
			t.Fatalf("decoded system does not encode: %v", err)
		}
		again, err := UnmarshalSystem(first)
		if err != nil {
			t.Fatalf("encoded system does not decode: %v\n%s", err, first)
		}
		second, err := again.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the document:\n%s\nthen\n%s", first, second)
		}
	})
}
