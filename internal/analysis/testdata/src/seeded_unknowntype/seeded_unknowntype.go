// Package seeded_unknowntype is a deliberately broken endpoint used by
// the driver tests to prove the CI gate trips: its stack names a
// chunnel type that no implementation in the program registers, so
// every negotiation of it would fail at run time. If a change like this
// ever lands in a real package, berthavet (and the berthavet CI job)
// fails the build.
package seeded_unknowntype

import (
	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
)

// Infos declares the program's one implementation, of "checksum".
var Infos = []core.ImplInfo{
	{Name: "checksum/crc32", Type: "checksum", Location: core.LocUserspace},
}

// Dial negotiates checksum under a misspelled "chekcsum".
func Dial() (*bertha.Endpoint, error) {
	return bertha.New("client", spec.Seq(spec.New("chekcsum")))
}
