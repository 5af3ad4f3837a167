// Package seeded_aliasrelease is a deliberately buggy application
// handler used by the driver tests to prove the CI gate sees through
// the public API's type aliases: bertha.Buf is an alias of wire.Buf,
// which go/types reports as a *types.Alias, not a *types.Named. A
// check that matches only the named type lets this double release
// through; if a change like this ever lands in a real package,
// berthavet (and the berthavet CI job) fails the build.
package seeded_aliasrelease

import "github.com/bertha-net/bertha/bertha"

// handle sums b's payload and returns b to the pool twice: the second
// Release hands back a buffer another owner may hold by then.
func handle(b *bertha.Buf) (sum byte) {
	for _, c := range b.Bytes() {
		sum += c
	}
	b.Release()
	b.Release()
	return sum
}
