package repro.data

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.core.AlarmPipeline

class AlarmSchemaSpec extends SparkSpec {

  test("labelled rows -> events -> batch frame gives back the source columns") {
    val labelled = AlarmPipeline.labelByDuration(TestFixtures.sitasys(spark), 1).limit(200).cache()
    val cols = Seq("id", "device_addr", "ts_epoch") ++ AlarmPipeline.featuresFor("sitasys")
    val source = labelled.withColumn("ts_epoch", unix_timestamp(col("ts")))
      .select(cols.map(col): _*).collect().map(_.toSeq).sortBy(_.head.asInstanceOf[Long])
    val events = AlarmSchema.events(labelled).collect().toIndexedSeq
    val back = AlarmSchema.eventFrame(spark, events)
      .select(cols.map(col): _*).collect().map(_.toSeq).sortBy(_.head.asInstanceOf[Long])
    // The wire fields, spelled out in `cols` order, so a swap that the round
    // trip would undo still shows.
    val wire = events.map(e => Seq(e.id, e.deviceAddr, e.tsEpoch, e.zip, e.dayOfWeek, e.hourOfDay,
      e.alarmType, e.propertyType, e.sensorType, e.swVersion)).sortBy(_.head.asInstanceOf[Long])
    assert(source.length == 200)
    assert(wire == source.toSeq)
    assert(back.toSeq == source.toSeq)
  }
}
