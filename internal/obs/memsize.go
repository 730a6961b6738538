package obs

import "unsafe"

// sizeClasses are the Go allocator's small-object size classes (runtime
// sizeclasses.go): a request of up to 32 KiB takes the smallest class that
// holds it.
var sizeClasses = [...]uint16{
	8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
	240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896,
	1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456,
	4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728, 10240, 10880,
	12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576, 27264,
	28672, 32768,
}

// pageSize is the allocator's page: larger objects take whole pages.
const pageSize = 8192

// AllocBytes returns the heap bytes one allocation of size bytes occupies:
// size rounded up to its size class, or to whole pages above 32 KiB. Zero
// bytes cost nothing. It is an accounting figure computed from struct sizes,
// not a measurement, so the memory tables built from it need no sampling.
func AllocBytes(size uintptr) int64 {
	if size == 0 {
		return 0
	}
	if size > uintptr(sizeClasses[len(sizeClasses)-1]) {
		return int64((size + pageSize - 1) / pageSize * pageSize)
	}
	lo, hi := 0, len(sizeClasses)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if uintptr(sizeClasses[mid]) < size {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(sizeClasses[lo])
}

// SliceBytes returns the heap bytes of s's backing array: its capacity in
// elements, rounded like AllocBytes.
func SliceBytes[T any](s []T) int64 {
	var zero T
	return AllocBytes(uintptr(cap(s)) * unsafe.Sizeof(zero))
}

// ObjectBytes returns the heap bytes of one allocated *T.
func ObjectBytes[T any](*T) int64 {
	var zero T
	return AllocBytes(unsafe.Sizeof(zero))
}

// MethodValueBytes is the heap bytes of one bound method value that
// escapes, such as a timer callback bound once at construction: a code
// pointer and its receiver.
var MethodValueBytes = AllocBytes(2 * unsafe.Sizeof(uintptr(0)))

// MemRow is one component's share of a run's live heap, from struct sizes
// and counts: Bytes over the whole run and BytesPerNode = Bytes / nodes.
type MemRow struct {
	Component    string  `json:"component"`
	Bytes        int64   `json:"bytes"`
	BytesPerNode float64 `json:"bytes_per_node"`
}

// MemTotal sums a memory table's bytes.
func MemTotal(rows []MemRow) int64 {
	var total int64
	for _, r := range rows {
		total += r.Bytes
	}
	return total
}
