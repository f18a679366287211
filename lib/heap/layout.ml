let word = 8
let header_bytes = 8
let write_word_bytes = 8
let line = 256
let block = 32 * 1024
let lines_per_block = block / line
let page = 4096
let max_small_object = 8 * 1024
let min_object = header_bytes
let small_mark_threshold = 16
let mark_table_bytes_per_region = 262 * 1024
let mature_region = 4 * 1024 * 1024

let align_up x a = (x + a - 1) land lnot (a - 1)
let align_object_size s = Int.max min_object (align_up s word)
