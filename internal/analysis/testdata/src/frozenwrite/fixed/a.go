// The canonical fix for frozenwrite/a: mutation happens only in builders
// (taint became a copy-on-write builder returning the modified capture, and
// scrub zeroes rows[0] inside build before the capture is returned),
// matching how repair epochs copy the ordering before permuting it.
package fixed

import "sync"

//vebo:frozen
type capture struct {
	n    int
	rows []int
	meta map[string]int
}

func build(n int) *capture {
	c := &capture{n: n, rows: make([]int, n+2), meta: map[string]int{}}
	c.rows[0] = 1
	c.meta["a"] = 1
	scrub(c.rows)
	return c
}

func scrub(rows []int) {
	rows[0] = 0
}

func taint(c *capture) *capture {
	next := &capture{n: 2, rows: make([]int, len(c.rows), len(c.rows)+1), meta: map[string]int{}}
	copy(next.rows, c.rows)
	next.rows[1] = 9
	next.rows = append(next.rows, 3)
	for k, v := range c.meta {
		if k != "a" {
			next.meta[k] = v
		}
	}
	return next
}

//vebo:frozen
type lazy struct {
	once sync.Once
	val  []int
}

func (l *lazy) get() []int {
	l.once.Do(func() { l.val = []int{1} })
	return l.val
}
