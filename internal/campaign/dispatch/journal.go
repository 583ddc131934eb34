package dispatch

import (
	"fmt"
	"io"
	"os"
	"sync"

	dnet "repro/internal/campaign/dispatch/net"
)

// journalEntry is one completed shard, durably recorded so a killed
// campaign resumes by replaying only the shards that are missing. The
// entry binds to the campaign name and plan hash: a journal written by
// a different campaign, seed, size or shard count is never replayed.
type journalEntry struct {
	Campaign string       `json:"campaign"`
	PlanHash string       `json:"plan_hash"`
	Shard    string       `json:"shard"`
	Results  []runPayload `json:"results"`
	// Hash is payloadHash over (shard, results) — the same integrity
	// check the wire protocol uses, here protecting against torn or
	// corrupted journal writes.
	Hash string `json:"hash"`
}

// journalKey addresses an entry within one journal file.
type journalKey struct {
	campaign, planHash, shard string
}

// journal is a shard-granular checkpoint: an append-only file of
// length-prefixed JSON entries, one per completed shard. Appends are
// synced, and loading tolerates a truncated or corrupted tail (the
// frame a crash cut short is simply not resumed). Safe for concurrent
// appenders.
type journal struct {
	mu      sync.Mutex
	f       *os.File
	entries map[journalKey]journalEntry
}

// openJournal opens (creating if needed) the journal at path and loads
// every intact entry. The file is truncated to the last intact entry so
// subsequent appends start at a clean frame boundary.
func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dispatch: opening checkpoint journal: %w", err)
	}
	j := &journal{f: f, entries: make(map[journalKey]journalEntry)}
	var off int64
	for {
		var e journalEntry
		err := dnet.ReadFrame(f, &e)
		if err != nil {
			// io.EOF is a clean end; anything else is the torn tail of
			// an interrupted append — drop it and resume from the last
			// intact entry.
			break
		}
		if e.Hash != hex64(payloadHash(parseHex64(e.Shard), e.Results)) {
			break
		}
		j.entries[journalKey{e.Campaign, e.PlanHash, e.Shard}] = e
		if off, err = f.Seek(0, io.SeekCurrent); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, fmt.Errorf("dispatch: truncating journal tail: %w", err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// lookup returns the journaled results of a shard, if any.
func (j *journal) lookup(campaign, planHash string, shard string) ([]runPayload, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[journalKey{campaign, planHash, shard}]
	if !ok {
		return nil, false
	}
	return e.Results, true
}

// append records one completed shard and syncs it to disk before
// returning, so a SIGKILL immediately after never forfeits the shard.
func (j *journal) append(campaign, planHash, shard string, results []runPayload) error {
	e := journalEntry{
		Campaign: campaign,
		PlanHash: planHash,
		Shard:    shard,
		Results:  results,
		Hash:     hex64(payloadHash(parseHex64(shard), results)),
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := dnet.WriteFrame(j.f, e); err != nil {
		return fmt.Errorf("dispatch: appending to checkpoint journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("dispatch: syncing checkpoint journal: %w", err)
	}
	j.entries[journalKey{campaign, planHash, shard}] = e
	return nil
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// parseHex64 inverts hex64; malformed input yields 0, which then fails
// the integrity comparison rather than crashing the loader.
func parseHex64(s string) uint64 {
	var v uint64
	if _, err := fmt.Sscanf(s, "%x", &v); err != nil {
		return 0
	}
	return v
}
