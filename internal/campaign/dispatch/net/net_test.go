package dnet

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

type msg struct {
	Seq  int    `json:"seq"`
	Text string `json:"text"`
}

// pair builds a connected framed pair over a real localhost TCP
// socket, with the given tap and read timeout on the server side.
func pair(t *testing.T, tap Tap, readTimeout time.Duration) (client, server *Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		raw, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		server = NewConn(raw, tap, readTimeout)
	}()
	client, err = Dial(context.Background(), l.Addr().String(), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if server == nil {
		t.Fatal("no server connection")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestFrameRoundTrip(t *testing.T) {
	client, server := pair(t, nil, 0)
	for i := 0; i < 10; i++ {
		if err := client.WriteFrame(msg{Seq: i, Text: strings.Repeat("x", i*100)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		var m msg
		if err := server.ReadFrame(&m); err != nil {
			t.Fatal(err)
		}
		if m.Seq != i || len(m.Text) != i*100 {
			t.Fatalf("frame %d arrived as %+v", i, m)
		}
	}
	// Closing the peer surfaces as EOF at the frame boundary.
	client.Close()
	var m msg
	if err := server.ReadFrame(&m); err != io.EOF {
		t.Fatalf("read after close = %v, want io.EOF", err)
	}
}

func TestConcurrentWritersInterleaveAtFrameGranularity(t *testing.T) {
	client, server := pair(t, nil, 0)
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := client.WriteFrame(msg{Seq: w, Text: strings.Repeat("y", 50)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	counts := make([]int, writers)
	for i := 0; i < writers*per; i++ {
		var m msg
		if err := server.ReadFrame(&m); err != nil {
			t.Fatal(err)
		}
		counts[m.Seq]++
	}
	for w, n := range counts {
		if n != per {
			t.Fatalf("writer %d delivered %d frames, want %d", w, n, per)
		}
	}
}

// scriptTap replays a fixed per-ordinal action script on one
// direction.
type scriptTap struct {
	dir    Direction
	script map[uint64]Action
}

func (s *scriptTap) Frame(dir Direction, ordinal uint64) Action {
	if dir != s.dir {
		return Action{}
	}
	return s.script[ordinal]
}

func TestTapDropSkipsFrame(t *testing.T) {
	client, server := pair(t, &scriptTap{dir: Recv, script: map[uint64]Action{1: {Drop: true}}}, 0)
	for i := 0; i < 3; i++ {
		if err := client.WriteFrame(msg{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	for i := 0; i < 2; i++ {
		var m msg
		if err := server.ReadFrame(&m); err != nil {
			t.Fatal(err)
		}
		got = append(got, m.Seq)
	}
	if got[0] != 0 || got[1] != 2 {
		t.Fatalf("delivered %v, want [0 2]", got)
	}
}

func TestTapCorruptBreaksDecoding(t *testing.T) {
	client, server := pair(t, &scriptTap{dir: Recv, script: map[uint64]Action{0: {Corrupt: true}}}, 0)
	if err := client.WriteFrame(msg{Seq: 7, Text: "payload"}); err != nil {
		t.Fatal(err)
	}
	var m msg
	err := server.ReadFrame(&m)
	if err == nil || !strings.Contains(err.Error(), "decoding frame") {
		t.Fatalf("corrupted frame read = %v, want decode error", err)
	}
}

func TestTapResetClosesConnection(t *testing.T) {
	client, server := pair(t, &scriptTap{dir: Recv, script: map[uint64]Action{0: {Reset: true}}}, 0)
	if err := client.WriteFrame(msg{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	var m msg
	if err := server.ReadFrame(&m); err == nil || !strings.Contains(err.Error(), "reset") {
		t.Fatalf("read through reset = %v, want reset error", err)
	}
	// The underlying connection is gone for the peer too.
	client.raw.(net.Conn).SetReadDeadline(time.Now().Add(2 * time.Second))
	var m2 msg
	if err := client.ReadFrame(&m2); err == nil {
		t.Fatal("peer read succeeded after reset")
	}
}

func TestReadTimeoutReportsSilentPeer(t *testing.T) {
	_, server := pair(t, nil, 50*time.Millisecond)
	var m msg
	err := server.ReadFrame(&m)
	if err == nil || !strings.Contains(err.Error(), "silent") {
		t.Fatalf("silent peer read = %v, want missed-heartbeat error", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("silent peer error %v does not unwrap to a timeout", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	client, server := pair(t, nil, 0)
	// Hand-write a frame whose length prefix claims more than MaxFrame.
	if _, err := client.raw.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	var m msg
	if err := server.ReadFrame(&m); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame read = %v, want limit error", err)
	}
}
