package repro.docstore

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestFixtures}

class AlarmHistorySpec extends SparkSpec {

  private lazy val (store, history) = {
    val s = new DocStore(spark)
    val h = new AlarmHistory(spark, s)
    h.ingest(TestFixtures.sitasys(spark).limit(800))
    (s, h)
  }

  private lazy val someDevices: Seq[String] =
    history.historyDf.select("device_addr").distinct().limit(5)
      .collect().map(_.getString(0)).toSeq

  test("ingest stores every alarm as a document with ts_epoch") {
    assert(store.count("alarms") == 800)
    assert(history.historyDf.columns.contains("ts_epoch"))
    assert(!history.historyDf.columns.contains("ts"))
  }

  test("ingest is additive (long-term storage)") {
    val s = new DocStore(spark)
    val h = new AlarmHistory(spark, s)
    h.ingest(TestFixtures.sitasys(spark).limit(10))
    h.ingest(TestFixtures.sitasys(spark).limit(15))
    assert(s.count("alarms") == 25)
  }

  test("histogram covers exactly the requested devices") {
    val hist = history.histogram(someDevices, 0L)
    val devs = hist.select("device_addr").distinct().collect().map(_.getString(0)).toSet
    assert(devs.subsetOf(someDevices.toSet))
    assert(devs.nonEmpty)
  }

  test("histogram bucket starts are aligned to the bucket width") {
    val hist = history.histogram(someDevices, 0L, bucketSec = 3600)
    assert(hist.where(col("bucket_start") % 3600 =!= 0).count() == 0)
  }

  test("histogram counts sum to the device's alarms past the cutoff") {
    val dev = someDevices.head
    val total = history.historyDf.where(col("device_addr") === dev).count()
    val summed = history.histogram(Seq(dev), 0L)
      .agg(sum("n_alarms")).collect()(0).getLong(0)
    assert(summed == total)
  }

  test("the from-epoch cutoff filters old alarms") {
    val dev = someDevices.head
    val cutoff = 1451606400L // 2016-01-01: mid-window of the Sitasys data
    val expect = history.historyDf
      .where(col("device_addr") === dev && col("ts_epoch") >= cutoff).count()
    val got = history.histogram(Seq(dev), cutoff)
      .agg(coalesce(sum("n_alarms"), lit(0L))).collect()(0).getLong(0)
    assert(got == expect)
  }

  private lazy val histInput = history.historyDf.select("device_addr", "ts_epoch")
  private val fromEpoch = 1443657600L

  /** The histogram of `someDevices` since `fromEpoch`, as DuckDB SQL. */
  private def oracleSql: String =
    s"""SELECT device_addr,
       |       CAST(FLOOR(CAST(ts_epoch AS BIGINT) / 3600) * 3600 AS BIGINT) AS bucket_start,
       |       COUNT(*) AS n_alarms
       |FROM history
       |WHERE device_addr IN (${someDevices.map(d => s"'$d'").mkString(", ")})
       |  AND CAST(ts_epoch AS BIGINT) >= $fromEpoch
       |GROUP BY device_addr, bucket_start""".stripMargin

  test("histogram matches the DuckDB oracle") {
    val got = AlarmHistory.histogramOf(histInput, someDevices, fromEpoch, 3600)
    Oracle.assertEquivalent(got, oracleSql, "history" -> histInput)
  }

  test("oracle catches wrong results") {
    val wrong = AlarmHistory.histogramOf(histInput, someDevices, fromEpoch, 3600)
      .withColumn("n_alarms", col("n_alarms") + 1)
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, oracleSql, "history" -> histInput)
    }
  }

  test("histogram of unknown devices is empty") {
    assert(history.histogram(Seq("ff:ff:ff:ff:ff:ff"), 0L).count() == 0)
  }

  test("ingest accepts frames that already carry ts_epoch") {
    import spark.implicits._
    val s = new DocStore(spark)
    val h = new AlarmHistory(spark, s)
    val df = Seq(("d1", 1000L), ("d1", 5000L)).toDF("device_addr", "ts_epoch")
    h.ingest(df)
    val hist = h.histogram(Seq("d1"), 0L, bucketSec = 4096)
    assert(hist.count() == 2)
  }
}
