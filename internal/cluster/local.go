package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"svqact/internal/obs"
	"svqact/internal/query"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
)

// LocalBackend serves one shard from an in-process rank.Index — the test
// harness's replica, and the embedded single-process cluster mode. It
// answers through the same executor as a cmd/serve -repo -shard-name
// process: offline statements only, honouring the coordinator's K
// override, answering vocabulary misses empty, and reporting
// Truncated/ResidualUpper for the distributed threshold.
type LocalBackend struct {
	name string
	exec *query.Executor

	// state is the serving (generation, index) pair, swapped atomically so
	// every query sees one consistent generation; staged is the next pair a
	// Reload will promote — the in-process equivalent of a committed
	// on-disk generation behind the CURRENT pointer.
	state  atomic.Pointer[localState]
	staged atomic.Pointer[localState]

	closed atomic.Bool
}

type localState struct {
	gen int
	ix  *rank.Index
}

// NewLocalBackend wraps a merged shard index. gen is reported as the
// serving generation.
func NewLocalBackend(name string, gen int, ix *rank.Index) *LocalBackend {
	b := &LocalBackend{name: name, exec: query.New(query.Config{Shard: true})}
	b.state.Store(&localState{gen: gen, ix: ix})
	return b
}

// Close makes the backend refuse further queries — the in-process
// equivalent of killing the serving process.
func (b *LocalBackend) Close() { b.closed.Store(true) }

// Reopen reverses Close — the replica restarting.
func (b *LocalBackend) Reopen() { b.closed.Store(false) }

func (b *LocalBackend) Name() string { return b.name }

// StageGeneration stages the next (generation, index) pair for Reload to
// promote — the in-process analogue of committing a new generation to the
// shard's repository directory.
func (b *LocalBackend) StageGeneration(gen int, ix *rank.Index) {
	b.staged.Store(&localState{gen: gen, ix: ix})
}

// Reload promotes the staged generation, mirroring the serve process's
// fail-closed POST /repo/reload: with nothing staged the serving
// generation is simply re-reported (reloading to the same generation is a
// no-op, not an error), and a closed backend errors with the old state
// intact.
func (b *LocalBackend) Reload(ctx context.Context) (int, error) {
	if b.closed.Load() {
		return 0, &replicaError{Replica: b.name, Err: errors.New("backend closed")}
	}
	if next := b.staged.Swap(nil); next != nil {
		b.state.Store(next)
	}
	return b.state.Load().gen, nil
}

// Generation reports the serving generation.
func (b *LocalBackend) Generation(ctx context.Context) (int, error) {
	if b.closed.Load() {
		return 0, &replicaError{Replica: b.name, Err: errors.New("backend closed")}
	}
	return b.state.Load().gen, nil
}

// Healthy reports whether the backend can serve.
func (b *LocalBackend) Healthy(context.Context) error {
	if b.closed.Load() {
		return &replicaError{Replica: b.name, Err: errors.New("backend closed")}
	}
	return nil
}

// Query parses and answers one ranked statement against the shard index.
// Like a real serve process, the backend runs under its own trace — span
// offsets are relative to its own start — and reports the snapshot in the
// response, so the coordinator's graft path is exercised in-process too.
func (b *LocalBackend) Query(ctx context.Context, req Request) (*Response, error) {
	if b.closed.Load() {
		return nil, &replicaError{Replica: b.name, Err: errors.New("backend closed")}
	}
	// One atomic load: the whole query answers from a single consistent
	// (generation, index) pair even if a Reload swaps mid-flight.
	cur := b.state.Load()
	ltrace := obs.NewTrace(req.QueryID)
	ltrace.SetRemoteParent(req.ParentSpan)
	ctx = obs.WithTrace(ctx, ltrace)
	st, err := sqlq.Parse(req.SQL)
	if err != nil {
		return nil, &BadRequestError{Msg: err.Error()}
	}
	plan, err := st.Plan()
	if err != nil {
		return nil, &BadRequestError{Msg: err.Error()}
	}
	if plan.Online {
		return nil, &BadRequestError{Msg: "cluster: only ranked (ORDER BY rank() LIMIT k) statements shard"}
	}
	ans, err := b.exec.Execute(ctx, plan, query.Request{K: req.K, Index: cur.ix})
	if err != nil {
		var bad *query.BadRequestError
		if errors.As(err, &bad) {
			return nil, &BadRequestError{Msg: err.Error()}
		}
		return nil, &replicaError{Replica: b.name, Err: fmt.Errorf("shard query: %w", err)}
	}
	resp := &Response{
		Shard:         b.name,
		Replica:       b.name,
		Generation:    cur.gen,
		Candidates:    ans.Candidates,
		Truncated:     ans.Truncated,
		ResidualUpper: ans.ResidualUpper,
		Trace:         ltrace.Snapshot(),
	}
	for _, s := range ans.Sequences {
		resp.Sequences = append(resp.Sequences, RankedSeq{
			Video:     s.Video,
			StartClip: s.StartClip,
			EndClip:   s.EndClip,
			Score:     s.Score,
			Lower:     s.Lower,
			Upper:     s.Upper,
			Exact:     s.Exact,
		})
	}
	return resp, nil
}
