//go:build !race

package iommu

const raceEnabled = false
