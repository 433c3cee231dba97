package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, udf}
import org.apache.spark.util.LongAccumulator
import repro.{SparkSpec, TestFixtures}
import repro.data.AlarmSchema
import repro.docstore.{AlarmHistory, DocStore}
import repro.ml.{AlarmModel, SparkClassifiers}
import repro.streamlog._

/** `inner`, with `p_true` passed through a UDF that counts its calls. */
private final class CountingModel(inner: AlarmModel, calls: LongAccumulator) extends AlarmModel {
  def name: String = inner.name
  def transform(df: DataFrame): DataFrame = {
    val c = calls
    val bump = udf((p: Double) => { c.add(1); p })
    inner.transform(df).withColumn("p_true", bump(col("p_true")))
  }
}

class EndToEndSpec extends SparkSpec {

  private lazy val fixture = {
    val labeled = AlarmPipeline.labelByDuration(TestFixtures.sitasys(spark), 1)
    val prepared = AlarmPipeline.prepare(labeled, AlarmPipeline.featuresFor("sitasys"))
    val service = new VerificationService(prepared.encoder,
      SparkClassifiers.Logistic().fit(prepared.train))
    val history = new AlarmHistory(spark, new DocStore(spark))
    history.ingest(labeled.limit(500))
    val events = AlarmSchema.events(labeled.limit(900)).collect().toIndexedSeq
    (service, history, events)
  }

  private def mkPipeline(partitions: Int, model: AlarmModel => AlarmModel = identity) = {
    val (trained, history, events) = fixture
    val service = new VerificationService(trained.encoder, model(trained.model))
    val log = new EmbeddedLog(partitions)
    val producer = new LogProducer(log, Serializers.FastJsonSerializer)
    val e2e = new EndToEnd(spark, log, Serializers.FastJsonSerializer, history, service)
    (log, producer, e2e, events)
  }

  test("consumeBatch scores every produced alarm") {
    val (_, producer, e2e, events) = mkPipeline(4)
    producer.sendAll(events.take(300))
    val bt = e2e.consumeBatch()
    assert(bt.nAlarms == 300)
    assert(bt.nDevices == events.take(300).map(_.deviceAddr).distinct.size)
  }

  test("the ML part runs the model on every alarm it counts") {
    val calls = spark.sparkContext.longAccumulator("p_true calls")
    val (_, producer, e2e, events) = mkPipeline(4, new CountingModel(_, calls))
    producer.sendAll(events.take(300))
    val bt = e2e.consumeBatch()
    assert(bt.nAlarms == 300)
    assert(calls.value == bt.nAlarms)
  }

  test("per-component timings are populated (the Fig. 12 breakdown)") {
    val (_, producer, e2e, events) = mkPipeline(4)
    producer.sendAll(events.take(300))
    val bt = e2e.consumeBatch()
    assert(bt.deserializeSec > 0 && bt.streamSec > 0 && bt.historySec > 0 && bt.mlSec > 0)
    assert(bt.totalSec > 0)
  }

  test("the history component sees the window's devices") {
    val (_, producer, e2e, events) = mkPipeline(2)
    producer.sendAll(events.take(400))
    val bt = e2e.consumeBatch()
    assert(bt.nHistogramRows > 0, "expected historic alarms for at least one device")
  }

  test("exactly-once: a second drain consumes nothing") {
    val (_, producer, e2e, events) = mkPipeline(4)
    producer.sendAll(events.take(200))
    val (timings, _) = e2e.drain()
    assert(timings.map(_.nAlarms).sum == 200)
    assert(e2e.lag == 0)
    val bt = e2e.consumeBatch()
    assert(bt.nAlarms == 0)
  }

  test("drain processes multiple micro-batches when the batch size is small") {
    val (_, producer, e2e, events) = mkPipeline(1)
    producer.sendAll(events.take(250))
    val (timings, rate) = e2e.drain(maxPerPartition = 100)
    assert(timings.count(_.nAlarms > 0) == 3) // 100 + 100 + 50
    assert(timings.map(_.nAlarms).sum == 250)
    assert(rate > 0)
  }

  test("records produced after a drain are picked up by the next one") {
    val (_, producer, e2e, events) = mkPipeline(2)
    producer.sendAll(events.take(100))
    e2e.drain()
    producer.sendAll(events.slice(100, 150))
    val (timings, _) = e2e.drain()
    assert(timings.map(_.nAlarms).sum == 50)
  }
}
