package net

import (
	"sync"
	"time"
)

// TokenBucket is a classic rate/burst admission gate: Rate tokens refill
// per second up to Burst, one token admits one job. The job server answers
// 429 when a submission cannot be admitted without waiting. The zero value
// is not useful; construct with NewTokenBucket.
type TokenBucket struct {
	rate  float64
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
	now    func() time.Time // test hook
}

// NewTokenBucket creates a bucket refilling rate tokens per second with
// the given burst capacity (and that many tokens available immediately).
// rate <= 0 or burst <= 0 panic: an admission gate that can never admit is
// a configuration bug, not a policy.
func NewTokenBucket(rate float64, burst int) *TokenBucket {
	if rate <= 0 || burst <= 0 {
		panic("net: token bucket needs positive rate and burst")
	}
	return &TokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), now: time.Now}
}

// refill credits tokens for the time elapsed since the last accounting.
// Callers hold mu.
func (b *TokenBucket) refill() {
	t := b.now()
	if !b.last.IsZero() {
		b.tokens += t.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = t
}

// Allow takes n tokens if they are available right now, reporting whether
// it did. n larger than the burst can never be admitted and reports false.
func (b *TokenBucket) Allow(n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	if float64(n) > b.tokens {
		return false
	}
	b.tokens -= float64(n)
	return true
}
