type t =
  | Data of int * int array
  | Reply of int * int array
  | Term

let data_tag = 0
let term_tag = 1
let reply_tag = 2

let op_query = 0
let op_insert = 1
let op_delete = 2
let op_word tag k = (tag * Index.Key.sentinel) + k
let op_tag w = w / Index.Key.sentinel
let op_key w = w mod Index.Key.sentinel
