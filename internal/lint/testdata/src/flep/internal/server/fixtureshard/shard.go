// Package fixtureshard is the in-process shard the fixturelockpair
// gateway calls into. Its Load takes Server.mu, the shard half of the
// Gateway.mu/Server.mu contract.
package fixtureshard

import "sync"

type Server struct {
	mu sync.Mutex
	n  int
}

// Load takes the shard lock, as the real shard's Load does.
func (s *Server) Load() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
