package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, when}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AlarmPipeline, EndToEnd, VerificationService}
import repro.docstore.{AlarmHistory, DocStore}
import repro.ml.{AlarmModel, CategoricalEncoder}
import repro.streamlog.{AlarmEvent, EmbeddedLog, LogProducer, Serializers}

class SparkHelpersSpec extends AnyFunSuite with BeforeAndAfterAll {
  private lazy val spark = SparkSession.builder.master("local[2]").appName("perfbench-test")
    .config("spark.sql.shuffle.partitions", 4).getOrCreate()
  override def afterAll(): Unit = spark.stop()

  /** Scores `p_true = (id mod 10) / 10`, predicting true from 0.5 up. */
  private object ByIdModel extends AlarmModel {
    val name = "by-id"
    def transform(df: DataFrame): DataFrame =
      df.withColumn("p_true", (col("id") % 10) / 10.0)
        .withColumn("prediction", when(col("p_true") >= 0.5, 1.0).otherwise(0.0))
  }

  test("reference histogram row count equals AlarmHistory.histogram's") {
    import spark.implicits._
    val rows = Seq(("a", 100L), ("a", 1000L), ("a", 1500L), ("a", 4000L), ("b", 3600L),
      ("b", 7199L), ("b", 7200L), ("b", 7200L), ("c", 5000L))
    val history = new AlarmHistory(spark, new DocStore(spark))
    history.ingest(rows.toDF("device_addr", "ts_epoch"))
    val ref = new RefHistory(rows)
    for ((devices, from) <- Seq((Seq("a", "b"), 0L), (Seq("a", "b", "c", "zz"), 1000L),
                                (Seq("b"), 7200L), (Seq("zz"), 0L))) {
      assert(ref.histogramRows(devices, from, 3600) == history.histogram(devices, from, 3600).count(),
        s"$devices from $from")
    }
  }

  test("the sink receives every scored row once, even under a pruning count") {
    import spark.implicits._
    val sink = new ScoreSink(spark)
    val n = sink.wrap(ByIdModel).transform((0L until 50L).toDF("id").repartition(3))
      .select("p_true", "prediction").count()
    assert(n == 50)
    val got = sink.drain()
    assert(got.map(_.id).sorted == (0L until 50L))
    assert(got.forall(v => v.pTrue == (v.id % 10) / 10.0))
    assert(sink.drain().isEmpty)
  }

  test("every alarm sent through EndToEnd reaches the sink exactly once") {
    import spark.implicits._
    val events = (1L to 300L).map(i => AlarmEvent(i, s"dev-${i % 17}", s"${1000 + i % 5}",
      1451606400L + i * 600, (i % 7).toInt + 1, (i % 24).toInt, "fire", "residential",
      "smoke", "2.0", 30.0))
    val history = new AlarmHistory(spark, new DocStore(spark))
    history.ingest(events.map(e => (e.deviceAddr, e.tsEpoch)).toDF("device_addr", "ts_epoch"))
    val enc = CategoricalEncoder.fit(
      events.map(e => (e.zip, e.dayOfWeek, e.hourOfDay, e.alarmType, e.propertyType,
        e.sensorType, e.swVersion)).toDF(AlarmPipeline.featuresFor("sitasys"): _*),
      AlarmPipeline.featuresFor("sitasys"))
    val sink = new ScoreSink(spark)
    val log = new EmbeddedLog(4)
    new LogProducer(log, Serializers.FastJsonSerializer).sendAll(events)
    val e2e = new EndToEnd(spark, log, Serializers.FastJsonSerializer, history,
      new VerificationService(enc, sink.wrap(ByIdModel)))
    val tally = new Tally(events.map(e => e.id -> Verdict(e.id, (e.id % 10) / 10.0,
      if (e.id % 10 >= 5) 1.0 else 0.0)).toMap, threshold = 0.5)
    var batches = 0
    while (e2e.lag > 0) {
      val bt = e2e.consumeBatch(maxPerPartition = 20)
      val got = sink.drain()
      assert(bt.nAlarms == got.size)
      got.foreach(tally.record)
      batches += 1
    }
    assert(batches > 1)
    assert(tally.failed == 0 && tally.unexpected == 0 && tally.correct == 300)
  }
}
