let ok (care : Care.t) =
  Array.for_all (function Care.Conflict -> false | Care.Unseen | Care.Value _ -> true)
    care.Care.table
