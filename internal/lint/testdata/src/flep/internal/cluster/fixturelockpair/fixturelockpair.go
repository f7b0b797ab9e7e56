// Package fixturelockpair proves the declared cluster contract — the
// gateway's Gateway.mu and an in-process shard's Server.mu never nest —
// fires when the shard lock is taken under the gateway lock, through a
// shard method or a helper of the gateway's own, and stays silent when
// the gateway reads the shard before taking its lock. The matcher keys on
// the package path and the Type.field tail, so this package under
// internal/cluster/ and its shard under internal/server/ (analyzed
// together) hit the same contract as the real gateway and shard.
package fixturelockpair

import (
	"sync"

	"flep/internal/server/fixtureshard"
)

type Gateway struct {
	mu    sync.Mutex
	shard *fixtureshard.Server
	load  int
}

// BadNested reads the shard's load while holding the gateway lock.
func (g *Gateway) BadNested() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.load = g.shard.Load() // want `lockpair acquires fixtureshard.Server.mu while holding fixturelockpair.Gateway.mu — cluster contract: the gateway node lock and an in-process shard lock must never nest`
}

// BadInterprocedural reaches the shard through a helper; the edge is
// attributed to the call made while mu is held.
func (g *Gateway) BadInterprocedural() {
	g.mu.Lock()
	g.load = g.shardLoad() // want `lockpair acquires fixtureshard.Server.mu while holding fixturelockpair.Gateway.mu`
	g.mu.Unlock()
}

func (g *Gateway) shardLoad() int { return g.shard.Load() }

// CleanSequential reads the shard first and publishes under the lock.
func (g *Gateway) CleanSequential() {
	n := g.shardLoad()
	g.mu.Lock()
	g.load = n
	g.mu.Unlock()
}
