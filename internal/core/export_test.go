package core

// freePlatforms is the length of p's platform free list.
func (p *Predictor) freePlatforms() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
