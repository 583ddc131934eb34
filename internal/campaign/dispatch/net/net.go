// Package dnet carries the dispatch shard protocol over any duplex
// byte stream: a TCP/TLS socket to a worker agent or the stdin/stdout
// pipes of a spawned worker process. It owns the length-prefixed JSON
// frame codec, a framed connection with an interior write lock so
// heartbeats can interleave with responses, per-frame read deadlines
// for dead-peer detection, TCP/TLS dial and listen helpers, and a Tap
// seam through which internal/campaign/chaos injects network faults
// (dropped, corrupted, delayed frames; connection resets) to prove
// the coordinator's recovery never changes campaign output.
//
// The package deliberately knows nothing about campaigns: frames are
// opaque JSON values, so both the dispatcher and the chaos harness can
// import it without cycles.
package dnet

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"time"
)

// MaxFrame bounds a frame body so a corrupted length prefix cannot ask
// the reader to allocate unbounded memory (a detected data error, in
// the paper's terms, not a crash).
const MaxFrame = 256 << 20

// DefaultDialTimeout bounds one connection attempt.
const DefaultDialTimeout = 10 * time.Second

// WriteFrame marshals v and writes it as one length-prefixed frame.
// A *bufio.Writer is flushed so the frame is on the wire when the call
// returns.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dispatch: marshaling frame: %w", err)
	}
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], uint32(len(body)))
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	if bw, ok := w.(*bufio.Writer); ok {
		return bw.Flush()
	}
	return nil
}

// ReadFrame reads one length-prefixed frame into v. io.EOF at a frame
// boundary is returned as-is (clean shutdown); anything else that cuts
// a frame short is an unexpected-EOF error.
func ReadFrame(r io.Reader, v any) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("dispatch: decoding frame: %w", err)
	}
	return nil
}

// firstChunk is the body buffer a frame starts with before the bytes
// that actually arrive justify a larger one.
const firstChunk = 64 << 10

// readBody reads one raw frame body (without decoding it). The buffer
// grows with the bytes that arrive rather than trusting the length
// prefix, so a corrupted prefix on a short stream costs what the
// stream holds, never a MaxFrame allocation up front.
func readBody(r io.Reader) ([]byte, error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("dispatch: reading frame length: %w", err)
	}
	n := int(binary.BigEndian.Uint32(pre[:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("dispatch: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, 0, min(n, firstChunk))
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), cap(body)))
		}
		k, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+k]
		if err != nil {
			return nil, fmt.Errorf("dispatch: reading %d-byte frame: %w", n, err)
		}
	}
	return body, nil
}

// Direction tells a Tap which way a frame is crossing the connection.
type Direction int

const (
	// Send frames leave this endpoint.
	Send Direction = iota
	// Recv frames arrive at this endpoint.
	Recv
)

func (d Direction) String() string {
	if d == Send {
		return "send"
	}
	return "recv"
}

// Action is a Tap's verdict on one frame. The zero value lets the
// frame pass untouched.
type Action struct {
	// Drop loses the frame: a send returns success without writing, a
	// receive discards the frame and reads the next one. The peer's
	// deadline or heartbeat machinery must recover.
	Drop bool
	// Corrupt flips bits in the frame body (the length prefix stays
	// intact), so decoding or the integrity hash fails downstream.
	Corrupt bool
	// Reset closes the underlying connection mid-frame, like a peer
	// crash or a network partition.
	Reset bool
	// Delay stalls the frame before it is written or delivered.
	Delay time.Duration
}

// Tap intercepts raw frames crossing a Conn, one call per frame with
// that direction's zero-based ordinal. Implementations must be safe
// for concurrent use: one Conn calls it from its reader and writer,
// and a coordinator shares one Tap across every worker connection.
type Tap interface {
	Frame(dir Direction, ordinal uint64) Action
}

// Conn is one framed transport connection: WriteFrame/ReadFrame
// semantics over any duplex stream, an interior write lock so
// concurrent writers (shard responses and heartbeat pings) interleave
// at frame granularity, an optional per-frame read deadline bounding
// peer silence, and an optional fault-injection Tap.
type Conn struct {
	raw io.ReadWriteCloser
	br  *bufio.Reader

	wmu     sync.Mutex
	bw      *bufio.Writer
	sendOrd uint64

	tap         Tap
	readTimeout time.Duration
	recvOrd     uint64 // single reader; no lock needed

	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps an established stream. readTimeout, when positive,
// bounds the silence between frames: a peer that sends nothing for
// that long (no responses, no heartbeats) is declared dead and reads
// fail. It applies when raw has a SetReadDeadline method, as net.Conn
// and the *os.File ends of a pipe do; zero disables the deadline.
func NewConn(raw io.ReadWriteCloser, tap Tap, readTimeout time.Duration) *Conn {
	return &Conn{
		raw:         raw,
		br:          bufio.NewReader(raw),
		bw:          bufio.NewWriter(raw),
		tap:         tap,
		readTimeout: readTimeout,
	}
}

// WriteFrame sends one frame, applying the tap's verdict first. Safe
// for concurrent use.
func (c *Conn) WriteFrame(v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dispatch: marshaling frame: %w", err)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.tap != nil {
		act := c.tap.Frame(Send, c.sendOrd)
		c.sendOrd++
		if act.Delay > 0 {
			time.Sleep(act.Delay)
		}
		if act.Reset {
			c.raw.Close()
			return fmt.Errorf("dispatch: connection reset (injected fault)")
		}
		if act.Drop {
			return nil
		}
		if act.Corrupt {
			body = corruptBody(body)
		}
	}
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], uint32(len(body)))
	if _, err := c.bw.Write(pre[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(body); err != nil {
		return err
	}
	return c.bw.Flush()
}

// readDeadliner is the optional deadline capability of a stream.
type readDeadliner interface{ SetReadDeadline(time.Time) error }

// SetReadTimeout replaces the per-frame read deadline for subsequent
// reads; zero also clears any deadline already armed. Call it from the
// reading goroutine only.
func (c *Conn) SetReadTimeout(d time.Duration) {
	c.readTimeout = d
	if rd, ok := c.raw.(readDeadliner); ok && d == 0 {
		rd.SetReadDeadline(time.Time{})
	}
}

// ReadFrame reads the next delivered frame into v. Dropped frames are
// consumed and skipped; a read deadline overrun reports the peer as
// silent so callers can distinguish a dead connection from a slow
// shard.
func (c *Conn) ReadFrame(v any) error {
	for {
		if rd, ok := c.raw.(readDeadliner); ok && c.readTimeout > 0 {
			if err := rd.SetReadDeadline(time.Now().Add(c.readTimeout)); err != nil {
				return err
			}
		}
		body, err := readBody(c.br)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return fmt.Errorf("dispatch: peer silent for %s (missed heartbeats): %w", c.readTimeout, err)
			}
			return err
		}
		if c.tap != nil {
			act := c.tap.Frame(Recv, c.recvOrd)
			c.recvOrd++
			if act.Delay > 0 {
				time.Sleep(act.Delay)
			}
			if act.Reset {
				c.raw.Close()
				return fmt.Errorf("dispatch: connection reset (injected fault)")
			}
			if act.Drop {
				continue
			}
			if act.Corrupt {
				body = corruptBody(body)
			}
		}
		if err := json.Unmarshal(body, v); err != nil {
			return fmt.Errorf("dispatch: decoding frame: %w", err)
		}
		return nil
	}
}

// Close tears the connection down; safe to call more than once and
// from any goroutine (it is how peers unblock a pending ReadFrame).
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.raw.Close() })
	return c.closeErr
}

// RemoteAddr names the peer for diagnostics: the socket's remote
// address, or "pipe" for a stream that has none.
func (c *Conn) RemoteAddr() string {
	if nc, ok := c.raw.(net.Conn); ok {
		return nc.RemoteAddr().String()
	}
	return "pipe"
}

// corruptBody returns a copy of body with a few bits flipped, length
// preserved — the shape of corruption the integrity hash and JSON
// decoding are there to catch.
func corruptBody(body []byte) []byte {
	b := append([]byte(nil), body...)
	if len(b) == 0 {
		return b
	}
	b[0] ^= 0xa5
	b[len(b)/2] ^= 0x5a
	b[len(b)-1] ^= 0xa5
	return b
}

// Dial connects to a worker endpoint (TLS when tlsCfg is non-nil) and
// wraps it as a framed Conn.
func Dial(ctx context.Context, addr string, tlsCfg *tls.Config, tap Tap, readTimeout time.Duration) (*Conn, error) {
	d := &net.Dialer{Timeout: DefaultDialTimeout}
	var raw net.Conn
	var err error
	if tlsCfg != nil {
		raw, err = (&tls.Dialer{NetDialer: d, Config: tlsCfg}).DialContext(ctx, "tcp", addr)
	} else {
		raw, err = d.DialContext(ctx, "tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	return NewConn(raw, tap, readTimeout), nil
}

// Listen binds addr for incoming transport connections (TLS when
// tlsCfg is non-nil). Callers wrap accepted connections with NewConn.
func Listen(addr string, tlsCfg *tls.Config) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tlsCfg != nil {
		l = tls.NewListener(l, tlsCfg)
	}
	return l, nil
}
