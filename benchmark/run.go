package main

import (
	"math"
	"time"
)

// An untraced run takes setupRepeats extra set-ups besides one per epoch, so
// setup_s is a median of real samples rather than one reading; a traced
// train run takes coldStarts set-ups that stop after the first step, for
// train.first_step_ms_p10.
const (
	setupRepeats = 8
	coldStarts   = 20
)

// epochClock decides how many whole epochs a run measures: at least one, and
// another while the time spent plus half an epoch still fits the run's
// seconds, so a run measures between two thirds and one and a half times
// what it was asked to.
type epochClock struct {
	start   time.Time
	seconds float64
	done    int
}

func newEpochClock(seconds float64) *epochClock {
	return &epochClock{start: time.Now(), seconds: seconds}
}

func (c *epochClock) another() bool {
	spent := time.Since(c.start).Seconds()
	ok := c.done == 0 || spent+spent/float64(c.done)/2 < c.seconds
	c.done++
	return ok
}

// traceScale shortens the epochs of a traced run to a quarter: it runs every
// epoch twice, untraced for reference and traced, and reports no end-to-end
// number.
func traceScale(trace bool) int {
	if trace {
		return 4
	}
	return 1
}

// chanceLoss is the loss of guessing: ln(classes).
var chanceLoss = math.Log(classes)
