// Package dispatch ships whole campaign shards to worker processes.
//
// One executor, Fleet, balances shards over live worker connections of
// three kinds: dialed worker agents (Addrs), agents that register on a
// listen address (Listen), and worker processes it spawns itself
// (Command) — the current binary re-exec'd in a hidden worker mode,
// speaking over its stdin/stdout. Every connection carries the same
// length-prefixed JSON frame protocol (see the dnet sub-package): a
// hello from the worker, a netConfig frame back that ships the opaque
// campaign spec and the heartbeat interval, a spec ack, then one
// request frame per shard (campaign name, plan hash, shard id, run
// indices) answered by one response frame (encoded results plus an
// integrity hash), with heartbeat pings and telemetry deltas
// interleaved.
//
// The seam is hardened end to end — per-shard deadlines, dead-peer
// detection by missed heartbeats, straggler re-dispatch, retry with
// capped exponential backoff and deterministic jitter on another
// worker, response integrity verification, shard-granular
// checkpoint/resume — and degrades gracefully: remote fleet, then
// spawned workers, then in-process execution. Everything the protocol
// moves is a pure function of campaign identity, so a dispatched
// campaign reduces byte-identically to a serial one;
// internal/campaign/chaos injects faults into this very seam to prove
// it.
package dispatch

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/obs"
)

// protoVersion gates the frame protocol; parent and worker must agree.
// Version 2 wrapped worker→parent traffic in envelope frames so workers
// can interleave telemetry deltas with shard responses.
const protoVersion = 2

// hello is the first frame a worker writes after starting, proving the
// process came up and speaks our protocol version.
type hello struct {
	Proto int `json:"proto"`
	PID   int `json:"pid"`
	// Token identifies the worker's process instance (obs.ProcessToken).
	// A parent that reads its own token knows the "worker" runs in the
	// same process and shares its metric registry, so the parent skips
	// merging that worker's telemetry deltas (they are already counted).
	Token string `json:"token,omitempty"`
}

// request asks a worker to execute one shard of a campaign's plan.
type request struct {
	Seq      uint64 `json:"seq"`
	Campaign string `json:"campaign"`
	// PlanHash is campaign.PlanHash rendered %016x (JSON numbers cannot
	// carry 64-bit values exactly).
	PlanHash string `json:"plan_hash"`
	// Shard is the shard's deterministic FNV-1a id, rendered %016x.
	Shard string `json:"shard"`
	// Indices are the plan indices of the shard, ascending.
	Indices []int `json:"indices"`
	// Trace, when non-empty, is the parent campaign's trace id: the
	// worker records spans for this shard and ships them back on the
	// response. Empty means tracing is off and the worker records
	// nothing.
	Trace string `json:"trace,omitempty"`
	// Span is the parent-side dispatch span id, carried for diagnostics
	// (the parent re-parents returned spans itself when folding).
	Span uint64 `json:"span,omitempty"`
}

// runPayload is one run's encoded result inside a response.
type runPayload struct {
	Index   int    `json:"index"`
	Payload []byte `json:"payload"`
}

// response carries one shard's results (or the worker-side error).
type response struct {
	Seq   uint64 `json:"seq"`
	Shard string `json:"shard"`
	// Error, when non-empty, reports a campaign-level failure inside
	// the worker (a run returned an error or panicked). These are
	// deterministic, so the parent aborts instead of retrying.
	Error   string       `json:"error,omitempty"`
	Results []runPayload `json:"results,omitempty"`
	// Hash is payloadHash over (shard, results), rendered %016x. It is
	// computed worker-side before the frame enters the pipe, so any
	// corruption in transit is detected by the parent and the shard is
	// re-run.
	Hash string `json:"hash,omitempty"`
	// Spans are the worker-side spans recorded while serving this shard
	// (only when the request carried a trace id). They ride outside the
	// integrity hash — trace data is observational and must never gate
	// result acceptance.
	Spans []obs.SpanRec `json:"spans,omitempty"`
}

// envelope is one worker→parent frame after the hello: either a shard
// response or a batch of telemetry deltas (counter/histogram movement
// since the worker's previous metrics frame — see obs.DeltaTracker).
// Workers send the metrics frame for a shard before its response, so by
// the time the parent observes a campaign as finished every worker-side
// count has been merged.
type envelope struct {
	Resp    *response    `json:"resp,omitempty"`
	Metrics []obs.Series `json:"metrics,omitempty"`
	// Ping is a worker heartbeat: proof of life while a long shard
	// computes, on sockets and pipes alike (a stopped process stops
	// pinging just as a partitioned agent does).
	Ping *pingFrame `json:"ping,omitempty"`
}

// pingFrame is the heartbeat body; the sequence number only aids
// debugging — any arriving frame refreshes the peer's read deadline.
type pingFrame struct {
	Seq uint64 `json:"seq"`
}

// netConfig is the coordinator→worker frame that follows the hello on
// every connection: workers start independently of any campaign, so
// the coordinator ships the campaign spec and the heartbeat interval
// at handshake — to spawned processes exactly as to network agents.
// The worker acknowledges with a response envelope (Seq 0; Error
// carries a spec the worker cannot serve) before the first shard
// request.
type netConfig struct {
	// Spec is the opaque campaign spec (the experiment layer's encoded
	// WorkerSpec) the worker builds its campaign lookup from.
	Spec string `json:"spec"`
	// HeartbeatMs is the worker's ping interval; 0 disables heartbeats.
	HeartbeatMs int64 `json:"heartbeat_ms"`
	// Trace, when non-empty, is the coordinator's campaign trace id,
	// logged by network agents so operators can grep a fleet's logs by
	// trace.
	// Per-shard tracing is governed by request.Trace, not this field.
	Trace string `json:"trace,omitempty"`
}

// hex64 renders a 64-bit id the way every frame and journal entry
// carries it.
func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

// payloadHash fingerprints one shard's output, bound to the shard's
// own id: FNV-1a over the shard id, then every (index, payload) pair.
// A response whose hash does not match its content — or whose shard id
// does not match the request — is treated as a corrupted result.
func payloadHash(shard uint64, results []runPayload) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], shard)
	h.Write(buf[:])
	for _, r := range results {
		binary.BigEndian.PutUint64(buf[:], uint64(r.Index))
		h.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], uint64(len(r.Payload)))
		h.Write(buf[:])
		h.Write(r.Payload)
	}
	return h.Sum64()
}

// shardID derives a shard's deterministic identity from the campaign's
// plan hash, the bucket number and the member indices. It names the
// shard in diagnostics, journal entries and wire frames.
func shardID(planHash uint64, bucket int, indices []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], planHash)
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(bucket))
	h.Write(buf[:])
	for _, i := range indices {
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		h.Write(buf[:])
	}
	return h.Sum64()
}
