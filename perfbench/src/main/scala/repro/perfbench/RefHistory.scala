package repro.perfbench

/** The benchmark's own copy of the ingested alarm history: per device, the
  * sorted alarm times in epoch seconds. It sizes the consumer's history
  * query in plain Scala so that every batch's histogram can be checked. */
final class RefHistory(rows: Iterable[(String, Long)]) {
  private val byDevice: Map[String, Array[Long]] =
    rows.groupMap(_._1)(_._2).view.mapValues(_.toArray.sorted).toMap

  /** Row count of the histogram `AlarmHistory.histogramOf` computes: one row
    * per (device, bucket start) with alarms since `fromEpoch`, for the given
    * devices. */
  def histogramRows(devices: Iterable[String], fromEpoch: Long, bucketSec: Long): Long = {
    var n = 0L
    for (d <- devices.iterator.distinct; ts <- byDevice.get(d)) {
      var i = firstAtOrAfter(ts, fromEpoch)
      var last = Long.MinValue
      while (i < ts.length) {
        val b = Math.floorDiv(ts(i), bucketSec) * bucketSec
        if (b != last) { n += 1; last = b }
        i += 1
      }
    }
    n
  }

  private def firstAtOrAfter(ts: Array[Long], t: Long): Int = {
    val i = java.util.Arrays.binarySearch(ts, t)
    if (i < 0) -i - 1 else { var j = i; while (j > 0 && ts(j - 1) == t) j -= 1; j }
  }
}
