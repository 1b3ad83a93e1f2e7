// Seeded violations for the frozenwrite analyzer: capture and lazy are
// //vebo:frozen, so mutation is legal only in builders and once-guarded
// lazy initializers. A trailing allow= clause names no exemption: helpers
// that mutate through a parameter are flagged like any other writer.
package a

import "sync"

// capture stands in for an epoch snapshot shared across goroutines.
//
//vebo:frozen allow=scrub
type capture struct {
	n    int
	rows []int
	meta map[string]int
}

func build(n int) *capture {
	c := &capture{n: n, rows: make([]int, n+2), meta: map[string]int{}}
	c.rows[0] = 1 // builder: construction before publication
	c.meta["a"] = 1
	return c
}

func scrub(c *capture) {
	c.rows[0] = 0 // want `mutation through field rows aliases data of frozen type capture`
}

func taint(c *capture) {
	c.n = 2                    // want `write to field n of frozen type capture`
	c.rows[1] = 9              // want `mutation through field rows aliases data of frozen type capture`
	delete(c.meta, "a")        // want `mutation through field meta aliases data of frozen type capture`
	c.rows = append(c.rows, 3) // want `write to field rows of frozen type capture`
}

//vebo:frozen
type lazy struct {
	once sync.Once
	val  []int
}

func (l *lazy) get() []int {
	l.once.Do(func() { l.val = []int{1} }) // once-guarded lazy build
	return l.val
}

func (l *lazy) poke() {
	l.val = nil // want `write to field val of frozen type lazy`
}
