package dispatch

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/campaign"
	dnet "repro/internal/campaign/dispatch/net"
)

// frameBytes encodes v as one wire frame.
func frameBytes(t testing.TB, v any) []byte {
	var b bytes.Buffer
	if err := dnet.WriteFrame(&b, v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder every
// connection runs: the length prefix, the MaxFrame bound, and the JSON
// bodies of each protocol message, up to the integrity check of a
// decoded response. Nothing may panic, and reading one frame may not
// allocate beyond what the stream actually holds — a lying length
// prefix must not buy a MaxFrame buffer.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(f, hello{Proto: protoVersion, PID: 42, Token: "token"}))
	f.Add(frameBytes(f, netConfig{Spec: cubesSpec(24, -1), HeartbeatMs: 200, Trace: "8d9ac871f89c4c40"}))
	f.Add(frameBytes(f, request{Seq: 1, Campaign: "cubes", PlanHash: hex64(42), Shard: hex64(7), Indices: []int{0, 3}, Trace: "t", Span: 5}))
	good := []runPayload{{Index: 0, Payload: []byte(`7`)}, {Index: 3, Payload: []byte(`11`)}}
	f.Add(frameBytes(f, envelope{Resp: &response{Seq: 1, Shard: hex64(7), Results: good, Hash: hex64(payloadHash(7, good))}}))
	f.Add(frameBytes(f, envelope{Resp: &response{Seq: 1, Shard: hex64(7), Results: []runPayload{{Index: 0, Payload: []byte("garbage")}}, Hash: hex64(0xdead)}}))
	f.Add(frameBytes(f, envelope{Ping: &pingFrame{Seq: 3}}))
	f.Add([]byte{0, 0, 1, 0, '{', '"'})        // a torn frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})      // a prefix past MaxFrame
	f.Add([]byte{0x0f, 0xff, 0xff, 0xff, '{'}) // a prefix under MaxFrame the stream cannot back

	job := campaign.PayloadJob{
		Campaign: "cubes", N: 4,
		Store: func(i int, payload []byte) error {
			var v int
			return json.Unmarshal(payload, &v)
		},
	}
	shard := task{id: 7, indices: []int{0, 3}}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		var body json.RawMessage
		runtime.ReadMemStats(&before)
		err := dnet.ReadFrame(bytes.NewReader(data), &body)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(data))+256<<10 {
			t.Fatalf("reading one frame from %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		var h hello
		var cfg netConfig
		var req request
		var env envelope
		for _, v := range []any{&h, &cfg, &req, &env} {
			json.Unmarshal(body, v)
		}
		if env.Resp != nil {
			verifyAndStore(job, shard, *env.Resp)
		}
	})
}

// FuzzJournal writes a checkpoint journal, tears and bit-flips its tail
// as a crash or bad disk would, and reloads it. Every entry the reader
// accepts must replay exactly the payloads that were written, and
// every entry stored wholly before the first damaged byte must survive.
func FuzzJournal(f *testing.F) {
	f.Add([]byte(`7`), []byte(`11`), uint16(0), uint16(0), byte(0))
	f.Add([]byte(`123456789`), []byte(`0`), uint16(6), uint16(0), byte(0))    // torn tail
	f.Add([]byte(`123456789`), []byte(`42`), uint16(0), uint16(115), byte(1)) // flipped payload bit
	f.Add([]byte{}, []byte(`"x"`), uint16(3), uint16(2), byte(0x80))
	f.Fuzz(func(t *testing.T, p1, p2 []byte, cut, flipAt uint16, flip byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		j, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		written := [][]runPayload{
			{{Index: 0, Payload: p1}},
			{{Index: 0, Payload: p1}, {Index: 3, Payload: p2}},
			{{Index: 5, Payload: p2}},
		}
		var ends []int
		for k, payloads := range written {
			if err := j.append("cubes", hex64(42), hex64(uint64(k)), payloads); err != nil {
				t.Fatal(err)
			}
			fi, err := j.f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			ends = append(ends, int(fi.Size()))
		}
		j.close()

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		damage := len(raw) - int(cut)%(len(raw)+1)
		raw = raw[:damage]
		if at := int(flipAt); flip != 0 && at < len(raw) {
			raw[at] ^= flip
			damage = at
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		j2, err := openJournal(path)
		if err != nil {
			t.Fatalf("reopening a damaged journal: %v", err)
		}
		defer j2.close()
		for k, want := range written {
			got, ok := j2.lookup("cubes", hex64(42), hex64(uint64(k)))
			if ends[k] <= damage && !ok {
				t.Errorf("intact entry %d (ends at byte %d, damage at %d) was dropped", k, ends[k], damage)
			}
			if ok && !samePayloads(got, want) {
				t.Errorf("entry %d replays %v, want %v", k, got, want)
			}
		}
	})
}

func samePayloads(a, b []runPayload) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}
