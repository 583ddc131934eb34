package experiment

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// ValidateDispatchFlags checks the scheduling flags shared by
// cmd/inject and cmd/reproduce before any campaign work starts, so a
// bad invocation fails with a usage error instead of a mid-campaign
// surprise. dispatch reports whether -dispatch (or an implying flag)
// was given.
func ValidateDispatchFlags(workers, shards int, shardTimeout time.Duration, retries int, checkpoint string, dispatch bool) error {
	switch {
	case workers < 1:
		return fmt.Errorf("-workers %d: must be >= 1", workers)
	case shards < 0:
		return fmt.Errorf("-shards %d: must be >= 0 (0 selects the default)", shards)
	case shardTimeout < 0:
		return fmt.Errorf("-shard-timeout %v: must not be negative (0 selects the default)", shardTimeout)
	case retries < -1:
		return fmt.Errorf("-retries %d: must be >= -1 (-1 disables retries, 0 selects the default)", retries)
	}
	if !dispatch && checkpoint == "" && (shardTimeout != 0 || retries != 0) {
		return fmt.Errorf("-shard-timeout and -retries require -dispatch or -checkpoint")
	}
	if checkpoint != "" {
		if dir := filepath.Dir(checkpoint); dir != "." {
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				return fmt.Errorf("-checkpoint %q: parent directory %q is not a directory", checkpoint, dir)
			}
		}
	}
	return nil
}

// SelfDispatch switches opts onto the fault-tolerant shard dispatcher,
// with workers that are re-execs of the current binary under
// workerFlag and the given spec shipped to them at handshake. If the
// current executable cannot be resolved the command list stays empty
// and the dispatcher runs shards in-process (its degraded mode) —
// checkpointing still works there.
func SelfDispatch(opts *Options, spec WorkerSpec, workerFlag, checkpoint string, shardTimeout time.Duration, retries int, log io.Writer) error {
	spec.Options = *opts
	specJSON, err := spec.Encode()
	if err != nil {
		return err
	}
	cfg := &DispatchConfig{
		Spec:         specJSON,
		Checkpoint:   checkpoint,
		ShardTimeout: shardTimeout,
		Retries:      retries,
		Log:          log,
		WorkerStderr: log,
	}
	if exe, err := os.Executable(); err == nil {
		cfg.Command = []string{exe, workerFlag}
	} else if log != nil {
		fmt.Fprintf(log, "dispatch: cannot resolve current executable (%v); shards will run in-process\n", err)
	}
	opts.Dispatch = cfg
	return nil
}

// FleetDispatch puts networked worker agents first on the dispatcher's
// degradation ladder: shards go to agents at addrs (and to agents
// registering on listen, when set), with spawned workers as the
// fallback when no agent is reachable. The worker spec is shipped to
// agents at handshake, so agents need no pre-arranged environment.
func FleetDispatch(opts *Options, spec WorkerSpec, workerFlag string, addrs []string, listen string, heartbeat time.Duration, checkpoint string, shardTimeout time.Duration, retries int, log io.Writer) error {
	if err := SelfDispatch(opts, spec, workerFlag, checkpoint, shardTimeout, retries, log); err != nil {
		return err
	}
	opts.Dispatch.Fleet = addrs
	opts.Dispatch.FleetListen = listen
	opts.Dispatch.Heartbeat = heartbeat
	return nil
}

// ParseFleet splits a -fleet flag value (comma-separated host:port
// endpoints) and validates each address shape.
func ParseFleet(fleet string) ([]string, error) {
	var addrs []string
	for _, a := range strings.Split(fleet, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		if _, _, err := net.SplitHostPort(a); err != nil {
			return nil, fmt.Errorf("-fleet %q: %v (want host:port)", a, err)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// ValidateFleetFlags checks the networked-dispatch flags of cmd/inject
// and cmd/reproduce before any campaign work: the worker-agent flags
// (-worker-listen / -worker-connect) are mutually exclusive with each
// other, with the coordinator flags (-fleet / -fleet-listen) and with
// the subprocess worker mode (-worker-shard); -fleet cannot combine
// with -worker-shard either (a worker must never re-dispatch); and
// -heartbeat only means something to a coordinator.
func ValidateFleetFlags(fleet, fleetListen, workerListen, workerConnect string, heartbeat time.Duration, workerShard bool) error {
	agent := workerListen != "" || workerConnect != ""
	coordinator := fleet != "" || fleetListen != ""
	switch {
	case workerListen != "" && workerConnect != "":
		return fmt.Errorf("-worker-listen and -worker-connect are mutually exclusive (serve or register, not both)")
	case agent && coordinator:
		return fmt.Errorf("worker-agent flags (-worker-listen/-worker-connect) cannot combine with coordinator flags (-fleet/-fleet-listen)")
	case agent && workerShard:
		return fmt.Errorf("-worker-shard (subprocess worker mode) cannot combine with -worker-listen/-worker-connect")
	case coordinator && workerShard:
		return fmt.Errorf("-fleet/-fleet-listen cannot combine with -worker-shard (workers never re-dispatch)")
	case heartbeat != 0 && !coordinator:
		return fmt.Errorf("-heartbeat requires -fleet or -fleet-listen (agents take the interval from their coordinator)")
	}
	if _, err := ParseFleet(fleet); err != nil {
		return err
	}
	if fleetListen != "" {
		if _, _, err := net.SplitHostPort(fleetListen); err != nil {
			return fmt.Errorf("-fleet-listen %q: %v (want host:port)", fleetListen, err)
		}
	}
	if workerListen != "" {
		if _, _, err := net.SplitHostPort(workerListen); err != nil {
			return fmt.Errorf("-worker-listen %q: %v (want host:port)", workerListen, err)
		}
	}
	if workerConnect != "" {
		if _, _, err := net.SplitHostPort(workerConnect); err != nil {
			return fmt.Errorf("-worker-connect %q: %v (want host:port)", workerConnect, err)
		}
	}
	return nil
}
