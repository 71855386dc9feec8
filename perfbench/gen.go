package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"
)

// The benchmark owns its input generator so that a change to the
// repository's own data generator cannot shift the workloads. The world
// model follows the paper's customer(NAME, CNT, CITY, ZIP, STR, CC, AC)
// example: every zip has one street, every city one area code and one
// country, so the clean instance satisfies every CFD below by construction.

// Attribute positions of the customer schema.
const (
	aNAME = iota
	aCNT
	aCITY
	aZIP
	aSTR
	aCC
	aAC
	arity
)

var attrNames = [arity]string{"NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"}

type city struct {
	name   string
	cnt    string
	cc, ac int
}

var cities = []city{
	{"Edinburgh", "UK", 44, 131},
	{"London", "UK", 44, 20},
	{"Glasgow", "UK", 44, 141},
	{"New York", "US", 1, 212},
	{"Chicago", "US", 1, 312},
	{"Madison", "US", 1, 608},
}

var streets = []string{
	"Mayfield Rd", "Crichton St", "Lauriston Pl", "Princes St", "High St",
	"Main St", "Oak Ave", "Mtn Ave", "Elm St", "Park Lane", "Queen St",
	"King St", "Station Rd", "Church Rd", "Mill Lane", "Bridge St",
}

// cfdsSparse is phi1-phi3 of the paper's running example.
const cfdsSparse = `phi1@ customer: [CNT=_, ZIP=_] -> [CITY=_]
phi2@ customer: [CNT=UK, ZIP=_] -> [STR=_]
phi3@ customer: [CC=44] -> [CNT=UK]
customer: [CC=1] -> [CNT=US]
`

// cfdsFull adds phi4, whose LHS groups are whole cities: any city or
// area-code error makes every tuple of the city dirty.
const cfdsFull = cfdsSparse + `phi4@ customer: [CNT=_, AC=_] -> [CITY=_]
`

// Dataset is one generated input: the rows in insertion order (cells in
// the string form the server's CSV reader parses them from) and the world
// model the workload draws its edits from.
type Dataset struct {
	Rows [][arity]string
	// zips lists each city's zips; street maps a zip to its one street.
	zips   [][]string
	street map[string]string
	// cityOf maps a row index to its clean city index.
	cityOf []int
}

// Generate builds n customer rows from seed, then gives noise*n distinct
// rows one corrupted cell each (street typo, country flip, wrong city or
// wrong area code, in equal shares).
func Generate(seed uint64, n int, noise float64) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 0x5e3a4d41))
	perCity := n / 50
	if perCity < 2 {
		perCity = 2
	}
	ds := &Dataset{zips: make([][]string, len(cities)), street: map[string]string{}}
	for ci, c := range cities {
		for z := 0; z < perCity; z++ {
			// Letters in every zip keep the value a string for the CSV
			// reader's type inference, on both sides of the wire.
			zip := fmt.Sprintf("%c%c%d %dAB", c.name[0], c.name[1]|0x20, z/10, z%10)
			if c.cnt == "US" {
				zip = fmt.Sprintf("US%d-%05d", ci, z)
			}
			ds.zips[ci] = append(ds.zips[ci], zip)
			ds.street[zip] = fmt.Sprintf("%d %s", 1+rng.IntN(200), streets[rng.IntN(len(streets))])
		}
	}
	ds.Rows = make([][arity]string, n)
	ds.cityOf = make([]int, n)
	for i := range ds.Rows {
		ci := rng.IntN(len(cities))
		c := cities[ci]
		zip := ds.zips[ci][rng.IntN(perCity)]
		ds.Rows[i] = [arity]string{
			fmt.Sprintf("c%d_%06d", seed, i), c.cnt, c.name, zip, ds.street[zip],
			strconv.Itoa(c.cc), strconv.Itoa(c.ac),
		}
		ds.cityOf[i] = ci
	}
	k := int(float64(n) * noise)
	for _, i := range rng.Perm(n)[:k] {
		row := &ds.Rows[i]
		switch rng.IntN(4) {
		case 0:
			row[aSTR] = typo(row[aSTR], rng)
		case 1:
			row[aCNT] = flip(row[aCNT])
		case 2:
			row[aCITY] = cities[otherCity(rng, ds.cityOf[i])].name
		default:
			row[aAC] = strconv.Itoa(cities[otherCity(rng, ds.cityOf[i])].ac)
		}
	}
	return ds
}

func flip(cnt string) string {
	if cnt == "UK" {
		return "US"
	}
	return "UK"
}

func otherCity(rng *rand.Rand, ci int) int {
	o := rng.IntN(len(cities) - 1)
	if o >= ci {
		o++
	}
	return o
}

// typo swaps two adjacent characters, or appends one when that changes
// nothing.
func typo(s string, rng *rand.Rand) string {
	i := rng.IntN(len(s) - 1)
	b := []byte(s)
	b[i], b[i+1] = b[i+1], b[i]
	if string(b) == s {
		return s + "x"
	}
	return string(b)
}

// CSV renders the rows with a header line.
func (ds *Dataset) CSV() []byte {
	var b bytes.Buffer
	for i, a := range attrNames {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a)
	}
	b.WriteByte('\n')
	for _, r := range ds.Rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}
